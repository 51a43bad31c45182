"""Skew-shape modules over the doubled two-vertex quiver, and flag counting.

A skew shape lam/mu and a parity i determine a nilpotent module with one
basis vector per skew box.  The four arrows act by moving boxes left along
rows or up along columns, gated by the box parity (s + t + i) mod 2:

    alpha:  (s, t) -> (s, t-1)   when the box parity is even
    beta:   (s, t) -> (s, t-1)   when the box parity is odd
    alpha*: (s, t) -> (s-1, t)   when the box parity is odd
    beta*:  (s, t) -> (s-1, t)   when the box parity is even

and zero whenever the target box is missing.  A basis vector sits at vertex
(s + t + i) mod 2, which is the unique grading making alpha and beta* act
0 -> 1 and beta and alpha* act 1 -> 0.  The relations
alpha* alpha = beta beta* and beta* beta = alpha alpha* are verified on
every basis vector at construction time.

With this orientation delta = alpha + beta walks left along rows, so its
Jordan type is the row-length partition lam for every shape module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import gf
from .errors import DomainError, ResourceLimitError
from .partitions import Partition, SkewShape, check_int, check_partition, format_partition
from .tableaux import check_bit, check_bits, enumerate_by_parity, ground_state

Box = tuple[int, int]

ARROW_NAMES = ("alpha", "beta", "alpha*", "beta*")


@dataclass(frozen=True)
class ShapeModule:
    outer: Partition
    inner: Partition
    parity: int
    boxes: tuple[Box, ...]
    actions: dict[str, dict[Box, Box]]

    @property
    def dim(self) -> int:
        return len(self.boxes)

    def vertex(self, box: Box) -> int:
        s, t = box
        return (s + t + self.parity) % 2

    def apply(self, arrow: str, box: Box) -> Box | None:
        if arrow not in ARROW_NAMES:
            raise DomainError(f"unknown arrow {arrow!r}")
        return self.actions[arrow].get(box)

    def to_json(self) -> dict:
        arrows = []
        for name in ARROW_NAMES:
            for src, dst in sorted(self.actions[name].items()):
                arrows.append([list(src), name, list(dst)])
        arrows.sort(key=lambda item: (item[0], item[1]))
        return {
            "outer": format_partition(self.outer),
            "inner": format_partition(self.inner),
            "parity": self.parity,
            "dim": self.dim,
            "arrows": arrows,
        }


def build_module(lam: Partition, mu: Partition, i: int) -> ShapeModule:
    """Construct the skew-shape module for mu inside lam at parity i."""
    shape = SkewShape(lam, mu)
    i = check_bit(i)
    boxes = tuple(shape.boxes())
    box_set = set(boxes)
    actions: dict[str, dict[Box, Box]] = {name: {} for name in ARROW_NAMES}
    for s, t in boxes:
        even = (s + t + i) % 2 == 0
        left = (s, t - 1)
        up = (s - 1, t)
        if left in box_set:
            actions["alpha" if even else "beta"][(s, t)] = left
        if up in box_set:
            actions["beta*" if even else "alpha*"][(s, t)] = up
    module = ShapeModule(shape.outer, shape.inner, i, boxes, actions)
    _check_relations(module)
    return module


def _compose(module: ShapeModule, first: str, second: str, box: Box) -> Box | None:
    mid = module.apply(first, box)
    return None if mid is None else module.apply(second, mid)


def _check_relations(module: ShapeModule) -> None:
    for box in module.boxes:
        lhs = _compose(module, "alpha", "alpha*", box)
        rhs = _compose(module, "beta*", "beta", box)
        if lhs != rhs:
            raise AssertionError(f"alpha* alpha != beta beta* at {box}")
        lhs = _compose(module, "beta", "beta*", box)
        rhs = _compose(module, "alpha*", "alpha", box)
        if lhs != rhs:
            raise AssertionError(f"beta* beta != alpha alpha* at {box}")


def delta_partition_type(module: ShapeModule) -> Partition:
    """Jordan type of delta = alpha + beta, via ranks of its powers.

    alpha and beta move disjoint sets of boxes, so delta is a partial map on
    the boxes; a 0/1 matrix with at most one 1 per column has rank the size
    of its image, so delta^j has rank |delta^j(boxes)|.
    """
    alpha, beta = module.actions["alpha"], module.actions["beta"]
    if alpha.keys() & beta.keys():
        raise DomainError("alpha and beta both move a box, so delta is not a partial map")
    delta = {**alpha, **beta}
    image = set(module.boxes)
    ranks = [len(image)]
    while image:
        image = {delta[box] for box in image if box in delta}
        if len(image) == ranks[-1]:
            raise DomainError("delta is not nilpotent on this module")
        ranks.append(len(image))
    blocks_ge = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    jordan: list[int] = []
    for j, count in enumerate(blocks_ge, start=1):
        # count = number of Jordan blocks of size >= j
        while len(jordan) < count:
            jordan.append(0)
        for idx in range(count):
            jordan[idx] = j
    return check_partition(sorted(jordan, reverse=True))


# the arrows into vertex 0 and into vertex 1
_INTO = (("beta", "alpha*"), ("alpha", "beta*"))


def _count_series(field: gf.GF, blocks, d: tuple[int, ...], memo: dict) -> int:
    dim = len(d)
    if dim == 0:
        return 1
    # blocks[v] has one row per basis vector at vertex v and one column per pair
    # (arrow into v, basis vector at 1 - v); its row count n_v fixes its shape,
    # and each entry is below q <= 5, so the key is exact
    key = bytes((dim, len(blocks[0]), *d, *chain.from_iterable(chain(*blocks))))
    if key in memo:
        return memo[key]
    eps = d[-1]
    into, out = blocks[eps], blocks[1 - eps]
    n = len(into)
    # A functional f with quotient S_eps vanishes off vertex eps and f X lives
    # on vertex 1 - eps, so f X lies in span(f) only as 0: the stable f are the
    # left kernel of the arrows into eps, [X_in | X_in'].
    functional_basis = gf.left_kernel_basis(field, into)
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
    arrows into it.  Enumerates, top down, every stable hyperplane whose
    quotient is the required simple, as the projective points of the left
    kernel of the arrows into that vertex, restricts to it by dropping one
    row there and a rank-one update of the arrows out of it, with add and mul
    read from the field's tables, and counts each distinct restricted module
    once through a memo that lives for this call.  Guarded to dim <= 7, q <= 5.
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
        raise ResourceLimitError(f"brute-force counting is guarded to q <= 5 (got {q})")
    at = [[box for box in module.boxes if module.vertex(box) == v] for v in (0, 1)]
    blocks = tuple(
        [
            [int(module.actions[name].get(src) == dst) for name in _INTO[v] for src in at[1 - v]]
            for dst in at[v]
        ]
        for v in (0, 1)
    )
    return _count_series(gf.GF(q), blocks, d, {})


def conjecture1_prediction(lam: Partition, i: int, d, q: int) -> int:
    """Sum of q^(ground state) over the tableaux with i-parity string d."""
    q = check_int(q, "field size")
    return sum(q ** ground_state(T, i) for T in enumerate_by_parity(lam, i, d))
