"""Chip-diagram networks, non-crossing path families, and their minor sums.

A chip of parity b has sources and sinks at every integer level; level l
connects straight across (weight 1) and, when l has parity b, also
diagonally up to l + 1 (weight a).  Concatenating chips along an
alternating word gives the planar network whose weight-matrix minors count
non-crossing path families.

A path through k chips is stored as its level sequence after each chip
(length k + 1); a family stores one such sequence per path.  Two monotone
paths share a vertex or an edge exactly when their level sequences touch,
so non-crossing reduces to strict interleaving at every junction column.
"""

from __future__ import annotations

from .errors import DomainError
from .multipoly import MultiPoly
from .partitions import BitString, Partition, Value, check_ints, check_word, index_windows


class PathFamily(Value):
    """Pairwise non-crossing paths through a concatenated chip diagram."""

    _fields = ("word", "levels")

    def __init__(self, word, levels):
        word = check_word(word)
        levels = tuple(check_ints(path, "path level") for path in levels)
        k = len(word)
        for path in levels:
            if len(path) != k + 1:
                raise DomainError(f"path {path} does not traverse {k} chips")
            for c in range(1, k + 1):
                step = path[c] - path[c - 1]
                if step not in (0, 1):
                    raise DomainError(f"path {path} takes an illegal step at chip {c}")
                if step == 1 and path[c - 1] % 2 != word[c - 1]:
                    raise DomainError(
                        f"path {path} ascends chip {c} from level {path[c - 1]}, "
                        "which that chip does not allow"
                    )
        for upper, lower in zip(levels, levels[1:]):
            if any(a <= b for a, b in zip(upper, lower)):
                raise DomainError(
                    "paths must be listed top to bottom and stay strictly apart"
                )
        vars(self).update(word=word, levels=levels)

    def to_json(self) -> list[list[int]]:
        return [list(path) for path in self.levels]


def _paths_between(word: BitString, source: int, sink: int) -> list[tuple[int, ...]]:
    """All admissible level sequences from source to sink, lexicographically: grown chip
    by chip, staying put before rising, while ``level <= sink <= level + chips left``."""
    k = len(word)
    paths = [(source,)] if source <= sink <= source + k else []
    for c, bit in enumerate(word):
        paths = [
            path + (level,) for path in paths
            for level in range(path[-1], path[-1] + 1 + (path[-1] % 2 == bit))
            if level <= sink <= level + k - c - 1
        ]
    return paths


def enumerate_families(word, mu: Partition, lam: Partition, i: int) -> list[PathFamily]:
    """All non-crossing families joining the mu-sources to the lam-sinks.

    Path n runs from mu[n] + i - n to lam[n] + i - n for n in 0..maxIndex(lam);
    the list is empty when no family exists.  Path 0 is chosen first, each path
    from its candidates in lexicographic order and kept when it stays strictly
    below the one before, so the list is sorted by levels.
    """
    word = check_word(word)
    sources, sinks = index_windows(mu, lam, i)
    families = [()]
    for source, sink in zip(sources, sinks):
        candidates = _paths_between(word, source, sink)
        families = [
            chosen + (path,)
            for chosen in families for path in candidates
            if not chosen or all(a > b for a, b in zip(chosen[-1], path))
        ]
    return [PathFamily._made(word=word, levels=levels) for levels in families]


def _ascent_counts(family: PathFamily) -> tuple[int, ...]:
    """Ascents inside each chip, summed over the family's paths.

    Every step is 0 or 1, so chip t's count is how much the paths' summed
    level grows across it.
    """
    heights = [sum(path[c] for path in family.levels) for c in range(len(family.word) + 1)]
    return tuple(b - a for a, b in zip(heights, heights[1:]))


def family_weight(family: PathFamily) -> MultiPoly:
    """Monomial a^j with j_t the number of ascents inside chip t."""
    return MultiPoly.monomial(len(family.word), _ascent_counts(family))


def lindstrom_minor(word, mu: Partition, lam: Partition, i: int) -> MultiPoly:
    """Sum of family weights; the path-side value of the Toeplitz minor.

    Counted by a walk over the tuples of path levels, chip by chip: across
    chip c (0-origin) each path stays put or, from a level of parity
    word[c], rises by one, and a family's weight gains a_{c+1} for each path
    that rises.  The levels stay strictly decreasing, which is the
    non-crossing condition; a tuple is dropped once some path can no longer
    reach its sink.
    """
    word = check_word(word)
    sources, sinks = index_windows(mu, lam, i)
    k = len(word)

    def moves(c: int, levels: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        left = k - c - 1
        bit = word[c]
        moved: list[tuple[tuple[int, ...], int]] = [((), 0)]
        for n, (level, sink) in enumerate(zip(levels, sinks)):
            steps = [0] if sink - level <= left else []
            # a path just above at level + 1 has the other parity, so it stays
            # put and a rise would meet it
            if level < sink and level % 2 == bit and (n == 0 or levels[n - 1] > level + 1):
                steps.append(1)
            moved = [(path + (level + d,), e + d) for path, e in moved for d in steps]
        return moved

    return MultiPoly.transfer_walk(k, sources, sinks, moves)


def render_family(family: PathFamily) -> str:
    """ASCII picture: levels top-down, sources left, sinks right.

    Vertices on a path print as '*', others as 'o'; horizontal edges as dashes
    and ascents as '/' on the gap line below the level they reach, which is
    left out when it holds none.  A family of no paths has no levels, so no lines.
    """
    if not family.levels:
        return ""
    k = len(family.word)
    top = max(max(path) for path in family.levels)
    bottom = min(min(path) for path in family.levels)
    width = 5 + 4 * k + 1
    lines = []  # the row of each level, then the gap line below it
    for level in range(top, bottom - 1, -1):
        row = list(f"{level:>4} ".ljust(width))
        row[5:width:4] = "o" * (k + 1)
        lines += [row, [" "] * width]
    for path in family.levels:
        for c, level in enumerate(path):
            n = 2 * (top - level)
            lines[n][5 + 4 * c] = "*"
            if c and level == path[c - 1]:
                lines[n][4 * c + 2:4 * c + 5] = "---"
            elif c:
                lines[n + 1][4 * c + 3] = "/"
    return "\n".join(filter(None, ("".join(line).rstrip() for line in lines)))
