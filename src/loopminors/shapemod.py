"""Skew-shape modules over the doubled two-vertex quiver, and flag counting.

A skew shape lam/mu and a parity i determine a nilpotent module with one
basis vector per skew box, which sits at vertex (s + t + i) mod 2.  Each
arrow moves a box one step left along its row or one step up its column,
and zero whenever the target box is missing; which arrow a move is depends
only on the vertex of the box it starts from:

    alpha:  left from vertex 0      beta:   left from vertex 1
    beta*:  up from vertex 0        alpha*: up from vertex 1

So alpha and beta* act 0 -> 1 and beta and alpha* act 1 -> 0.  A module is
its skew shape: it keeps the two moves, ``left`` and ``up``, as partial maps
on its boxes, and names arrows only where they are printed.  The relations
alpha* alpha = beta beta* and beta* beta = alpha alpha* both say that
left-then-up equals up-then-left, which is checked at every box at
construction time.
"""

from __future__ import annotations

from itertools import chain

from . import gf
from .errors import DomainError, ResourceLimitError
from .partitions import (
    Partition, Value, check_bit, check_bits, check_contained, check_int, check_partition,
    format_partition, is_prime_power, part,
)

Box = tuple[int, int]

# each arrow name as (move, vertex of the box it starts from)
ARROWS = {"alpha": ("left", 0), "beta": ("left", 1), "beta*": ("up", 0), "alpha*": ("up", 1)}


class ShapeModule(Value):
    """The module of the boxes of ``outer`` not in ``inner``, at one parity.

    A read-only value: equal and hashed by (outer, inner, parity); ``boxes``
    and the moves ``left`` and ``up`` are derived from it.
    """

    _fields = ("outer", "inner", "parity")

    def __init__(self, outer: Partition, inner: Partition, parity: int):
        outer, inner = check_partition(outer), check_partition(inner)
        check_contained(inner, outer)
        parity = check_bit(parity)
        boxes = tuple((s, t) for s in range(len(outer)) for t in range(part(inner, s), outer[s]))
        present = set(boxes)
        left = {(s, t): (s, t - 1) for s, t in boxes if (s, t - 1) in present}
        up = {(s, t): (s - 1, t) for s, t in boxes if (s - 1, t) in present}
        for box in boxes:
            if up.get(left.get(box)) != left.get(up.get(box)):
                raise AssertionError(f"left and up do not commute at {box}")
        vars(self).update(outer=outer, inner=inner, parity=parity, boxes=boxes, left=left, up=up)

    @property
    def dim(self) -> int:
        return len(self.boxes)

    def vertex(self, box: Box) -> int:
        s, t = box
        return (s + t + self.parity) % 2

    def to_json(self) -> dict:
        arrows = sorted(
            [list(src), name, list(dst)]
            for name, (move, source) in ARROWS.items()
            for src, dst in getattr(self, move).items()
            if self.vertex(src) == source
        )
        return {
            "outer": format_partition(self.outer),
            "inner": format_partition(self.inner),
            "parity": self.parity,
            "dim": self.dim,
            "arrows": arrows,
        }


def build_module(lam: Partition, mu: Partition, i: int) -> ShapeModule:
    """Construct the skew-shape module for mu inside lam at parity i."""
    return ShapeModule(lam, mu, i)


def _dual(blocks):
    """The vertex blocks of the dual module M* = Hom(M, F_q), one block per vertex.

    M* reverses every arrow: the arrows into v in M* are the transposes of
    the arrows out of v in M, which are the two halves of the block into
    1 - v, each transposed on its own.
    """
    n = len(blocks[0]), len(blocks[1])
    return tuple(
        [[row[h * n[v] + r] for h in (0, 1) for row in blocks[1 - v]] for r in range(n[v])]
        for v in (0, 1)
    )


def _count_series(field: gf.GF, blocks, d: tuple[int, ...], memo: dict) -> int:
    dim = len(d)
    if dim == 0:
        return 1
    # blocks[v] has one row per basis vector at vertex v and one column per pair
    # (arrow into v, basis vector at 1 - v); its row count n_v fixes its shape,
    # and each entry is below q <= 5, so the key is exact, whichever of M and
    # M* the blocks came from
    key = bytes((dim, len(blocks[0]), *d, *chain.from_iterable(chain(*blocks))))
    if key in memo:
        return memo[key]
    # A functional f with quotient S_eps vanishes off vertex eps and f X lives
    # on vertex 1 - eps, so f X lies in span(f) only as 0: the stable f are the
    # left kernel of the arrows into eps, [X_in | X_in'].
    functional_basis = gf.left_kernel_basis(field, blocks[d[-1]])
    if len(functional_basis) > 1:
        # Annihilators turn a series of M with quotients d_1..d_n into one of
        # M* with quotients d_n..d_1, so #series(M, d) = #series(M*, reversed d),
        # and the top of M* is a socle vector of M at d[0]: peel whichever end
        # has fewer stable functionals, the top on a tie.
        dual = _dual(blocks)
        dual_basis = gf.left_kernel_basis(field, dual[d[0]])
        if len(dual_basis) < len(functional_basis):
            blocks, d, functional_basis = dual, d[::-1], dual_basis
    eps = d[-1]
    into, out = blocks[eps], blocks[1 - eps]
    n = len(into)
    add, mul = field.add, field.mul
    total = 0
    for coeffs in gf.projective_vectors(field, len(functional_basis)):
        f = [0] * n
        for coeff, base in zip(coeffs, functional_basis):
            if coeff:
                scale = mul[coeff]
                f = [add[x][scale[b]] for x, b in zip(f, base)]
        # ker f has the basis e_j + c_j e_p (j != p) at vertex eps, with p f's
        # pivot and c = -f / f_p, and every vector at 1 - eps.  So the arrows
        # into eps lose row p, and each half of a row of the arrows out of eps
        # takes the rank-one update x_j + c_j x_p and loses column p.
        pivot = next(j for j, value in enumerate(f) if value)
        scale = mul[field.neg[field.inv[f[pivot]]]]
        c = [scale[value] for value in f]
        restricted = []
        for row in out:
            new_row = []
            for start in (0, n):
                half = row[start:start + n]
                if half[pivot]:
                    scale = mul[half[pivot]]
                    half = [add[x][scale[y]] for x, y in zip(half, c)]
                del half[pivot]
                new_row += half
            restricted.append(new_row)
        sub = into[:pivot] + into[pivot + 1:]
        total += _count_series(
            field, (sub, restricted) if eps == 0 else (restricted, sub), d[:-1], memo
        )
    memo[key] = total
    return total


def count_flags_fq(module: ShapeModule, d, q: int) -> int:
    """Exact number of composition series over F_q with quotients S_{d_t}.

    Works on the module's vertex grading: one block per vertex holds the two
    arrows into it.  Peels one end of the series at a time: every stable
    hyperplane whose quotient is the required simple, as the projective
    points of the left kernel of the arrows into that vertex, restricted to
    by dropping one row there and a rank-one update of the arrows out of it,
    with add and mul read from the field's tables.  The annihilators of a
    series of M with quotients d_1..d_n form a series of the dual module
    M* = Hom(M, F_q), whose arrows are the transposes of M's, with quotients
    d_n..d_1; so the top of M* is the bottom of M, and each step peels
    whichever of the two tops has fewer stable hyperplanes.  Each distinct
    restricted module, of either orientation, is counted once through a memo
    that lives for this call.  Guarded to dim <= 7, q <= 5, and a larger q
    that is no prime power is a DomainError.
    """
    d = check_bits(d, "parity string")
    q = check_int(q, "field size")
    if len(d) != module.dim:
        raise DomainError(f"series length {len(d)} != module dimension {module.dim}")
    if module.dim > 7:
        raise ResourceLimitError(
            f"brute-force counting is guarded to dimension <= 7 (got {module.dim})"
        )
    if q > 5:
        if not is_prime_power(q):
            raise DomainError(f"field size {q} is not a prime power")
        raise ResourceLimitError(f"brute-force counting is guarded to q <= 5 (got {q})")
    # the arrows into v are the two moves applied to the boxes at 1 - v
    at = [[box for box in module.boxes if module.vertex(box) == v] for v in (0, 1)]
    moves = (module.left, module.up)
    blocks = tuple(
        [[int(move.get(src) == dst) for move in moves for src in at[1 - v]] for dst in at[v]]
        for v in (0, 1)
    )
    return _count_series(gf.GF(q), blocks, d, {})
