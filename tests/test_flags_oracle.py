"""The vertex-graded stable-functional search against the exhaustive one.

``count_flags_fq`` keeps one block per vertex, the two arrows into it, and
visits only the projective points of the left kernel of the block into the
top vertex, the stable functionals.  It restricts to ker f by dropping f's
pivot row from that block and by a rank-one update, with the pivot column
dropped, of the block out of it, with field arithmetic read from tables, and
counts each distinct restricted module once, through a memo that lives for
one call.  The reference below is the exhaustive counter it replaced: it
keeps no memo, visits every projective point of ker E_{1-eps}, keeps those f
with f X in span(f) for each arrow X, and restricts every dense matrix, built
here from the module's arrows and vertices, by solving B Y = M B column by
column.  Off the grid both are drawn at F2 and F3
and, separately, at F4 and F5.  A series that asks for more quotients at one
vertex than the module has must count nothing.  Two tests pin counts across
field sizes, which a memo shared between calls would break, and a
dimension-7 case past the benchmark pool's budget.

Every shape module has 0/1 arrows, so its restrictions never read the
rank-one coefficient c = -f/f_p off a general entry.  The last tests hand
``shapemod._count_series`` vertex blocks with general entries and compare it
with the reference on the dense matrices of the same blocks.
"""

import random
from itertools import product

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from loopminors import gf, shapemod
from loopminors.errors import DomainError
from loopminors.partitions import partitions_up_to, size, subpartitions
from loopminors.phi import euler_char
from loopminors.shapemod import ARROWS, build_module, count_flags_fq


def dense_matrices(module):
    """The four arrows and the two vertex idempotents as dense dim x dim 0/1 matrices."""
    n = module.dim
    index = {box: idx for idx, box in enumerate(module.boxes)}
    arrows = []
    for name in ARROWS:
        mat = [[0] * n for _ in range(n)]
        for src in module.boxes:
            dst = module.apply(name, src)
            if dst is not None:
                mat[index[dst]][index[src]] = 1
        arrows.append(mat)
    idempotents = [[[0] * n for _ in range(n)] for _ in (0, 1)]
    for box, idx in index.items():
        idempotents[module.vertex(box)][idx][idx] = 1
    return arrows, idempotents


def mat_mul(field, a, b):
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in a]
    for i, row in enumerate(a):
        for k, aik in enumerate(row):
            if aik:
                for j in range(cols):
                    out[i][j] = field.add[out[i][j]][field.mul[aik][b[k][j]]]
    return out


def row_vec_mul(field, row, mat):
    return mat_mul(field, [row], mat)[0]


def solve_columns(field, basis, targets):
    """Solve basis @ Y = targets for Y, column by column.

    ``basis`` must have full column rank and every target column must lie in
    its column span (guaranteed here by submodule stability); violations
    raise.
    """
    rows = len(basis)
    cols = len(basis[0]) if basis else 0
    tcols = len(targets[0]) if targets and targets[0] is not None else 0
    if not targets:
        tcols = 0
    augmented = [basis[i][:] + targets[i][:] for i in range(rows)]
    reduced, pivots = gf.rref(field, augmented)
    if any(p >= cols for p in pivots):
        raise DomainError("target column outside the span of the basis")
    if len(pivots) != cols:
        raise DomainError("basis columns are dependent")
    out = [[0] * tcols for _ in range(cols)]
    for r, p in enumerate(pivots):
        for j in range(tcols):
            out[p][j] = reduced[r][cols + j]
    return out


def _in_span(field, f, v):
    pivot = next(i for i, value in enumerate(f) if value)
    scale = field.mul[v[pivot]][field.inv[f[pivot]]]
    return all(value == field.mul[scale][base] for value, base in zip(v, f))


def _count_series(field, arrows, idempotents, d):
    dim = len(d)
    if dim == 0:
        return 1
    eps = d[-1]
    functional_basis = gf.left_kernel_basis(field, idempotents[1 - eps])
    if not functional_basis:
        return 0
    total = 0
    for coeffs in gf.projective_vectors(field, len(functional_basis)):
        f = [0] * dim
        for c, base in zip(coeffs, functional_basis):
            if c:
                f = [field.add[x][field.mul[c][b]] for x, b in zip(f, base)]
        if not any(f):
            continue
        if not all(_in_span(field, f, row_vec_mul(field, f, X)) for X in arrows):
            continue
        kernel = gf.left_kernel_basis(field, [[v] for v in f])
        basis = [[vec[i] for vec in kernel] for i in range(dim)]
        sub_arrows = [
            solve_columns(field, basis, mat_mul(field, X, basis)) for X in arrows
        ]
        sub_idem = [
            solve_columns(field, basis, mat_mul(field, E, basis))
            for E in idempotents
        ]
        total += _count_series(field, sub_arrows, sub_idem, d[:-1])
    return total


def reference_count(module, d, q):
    field = gf.GF(q)
    return _count_series(field, *dense_matrices(module), tuple(d))


def test_counts_match_the_exhaustive_search_on_the_full_grid():
    cases = nonzero = 0
    for lam in partitions_up_to(5):
        for mu in subpartitions(lam):
            for i in (0, 1):
                module = build_module(lam, mu, i)
                for d in product((0, 1), repeat=module.dim):
                    for q in (2, 3, 4, 5):
                        count = count_flags_fq(module, d, q)
                        assert count == reference_count(module, d, q), (lam, mu, i, d, q)
                        cases += 1
                        nonzero += count != 0
    assert (cases, nonzero) == (6008, 1056)


SKEW_SHAPES = [
    (lam, mu)
    for lam in partitions_up_to(9)
    for mu in subpartitions(lam)
    if size(lam) - size(mu) in (6, 7)
]


@st.composite
def larger_cases(draw, qs=(2, 3)):
    lam, mu = draw(st.sampled_from(SKEW_SHAPES))
    module = build_module(lam, mu, draw(st.integers(0, 1)))
    # a parity string with the module's dimension vector, so counts can be nonzero
    d = draw(st.permutations([module.vertex(box) for box in module.boxes]))
    return module, tuple(d), draw(st.sampled_from(qs))


@given(case=larger_cases())
@settings(max_examples=40, deadline=3000)
def test_counts_match_the_exhaustive_search_off_the_grid(case):
    module, d, q = case
    assert count_flags_fq(module, d, q) == reference_count(module, d, q)


@given(case=larger_cases(qs=(4, 5)))
@settings(max_examples=30, deadline=3000)
def test_counts_match_the_exhaustive_search_off_the_grid_over_f4_and_f5(case):
    module, d, q = case
    assert count_flags_fq(module, d, q) == reference_count(module, d, q)


def test_a_series_that_runs_out_of_one_vertex_counts_nothing():
    # each module has n_eps vectors at vertex eps and d asks for one more S_eps
    # quotient, with the others taken first, so the walk reaches n_eps = 0
    # below the top: S_i^3 from three boxes on one diagonal, whose full flags
    # number (q + 1)(q^2 + q + 1), and the hook, with two corners at vertex 0
    for lam, mu, i, full, d in (
        ((3, 2, 1), (2, 1), 0, (0, 0, 0), (1, 0, 0)),
        ((3, 2, 1), (2, 1), 1, (1, 1, 1), (0, 1, 1)),
        ((2, 1), (), 1, (1, 0, 0), (0, 0, 0)),
    ):
        module = build_module(lam, mu, i)
        for q in (2, 3, 4, 5):
            assert count_flags_fq(module, full, q) > 0
            assert count_flags_fq(module, d, q) == 0 == reference_count(module, d, q)


def test_counts_do_not_leak_between_field_sizes():
    # one module counted at q = 2..5 in turn: a count remembered from one call
    # would be read back at the next q, whose key carries no q
    module = build_module((3, 2, 1), (), 1)
    d = (1, 0, 1, 0, 1, 1)
    assert [count_flags_fq(module, d, q) for q in (2, 3, 4, 5)] == [9, 16, 25, 36]
    # P(q) = (q + 1)^2, so the Euler characteristic P(1) is the tableau count
    assert euler_char((3, 2, 1), 1, d) == 4


def test_the_over_budget_case_at_every_field_size():
    # dimension 7, past the pool's functional budget
    module = build_module((4, 4, 2, 1), (3, 1), 0)
    d = (0, 0, 1, 1, 1, 1, 0)
    counts = [count_flags_fq(module, d, q) for q in (2, 3, 4, 5)]
    assert counts == [945, 8320, 44625, 174096]
    assert counts[0] == reference_count(module, d, 2)


def dense_from_blocks(blocks):
    """The arrows and vertex idempotents of the module that two vertex blocks give.

    The basis is the n0 vectors at vertex 0, then the n1 at vertex 1, and
    column h * n_{1-v} + c of ``blocks[v]`` is the h-th arrow into v applied
    to the c-th vector at 1 - v, as in ``count_flags_fq``.
    """
    sizes = (len(blocks[0]), len(blocks[1]))
    offset = (0, sizes[0])
    n = sum(sizes)
    arrows = []
    for v in (0, 1):
        width = sizes[1 - v]
        for h in (0, 1):
            mat = [[0] * n for _ in range(n)]
            for r, row in enumerate(blocks[v]):
                for c in range(width):
                    mat[offset[v] + r][offset[1 - v] + c] = row[h * width + c]
            arrows.append(mat)
    idempotents = [
        [[int(j == k and (j >= sizes[0]) == v) for k in range(n)] for j in range(n)]
        for v in (0, 1)
    ]
    return arrows, idempotents


@pytest.mark.parametrize(
    "q, blocks, d, count",
    [
        (5, ([[1, 0], [0, 0], [4, 0]], [[3, 0, 3, 0, 0, 0]]), (0, 1, 0, 0), 6),
        (
            4,
            (
                [[0, 1, 0, 3], [0, 0, 0, 0], [0, 0, 2, 3], [0, 0, 0, 0]],
                [[0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 3, 0]],
            ),
            (0, 1, 0, 1, 0, 0),
            5,
        ),
    ],
)
def test_general_blocks_pin_the_rank_one_coefficient(q, blocks, d, count):
    # with c = f in place of -f/f_p these count 1 and 0
    field = gf.GF(q)
    assert shapemod._count_series(field, blocks, d, {}) == count
    assert _count_series(field, *dense_from_blocks(blocks), d) == count


def test_sparse_general_blocks_match_the_exhaustive_search():
    # dense random blocks almost always count 0, so most entries are drawn 0
    rng = random.Random(2005)
    nonzero = 0
    for _ in range(60):
        q = rng.choice((3, 4, 5))
        sizes = (rng.randint(1, 3), rng.randint(1, 3))
        blocks = tuple(
            [
                [rng.randrange(1, q) if rng.random() < 0.2 else 0 for _ in range(2 * sizes[1 - v])]
                for _ in range(sizes[v])
            ]
            for v in (0, 1)
        )
        d = tuple(rng.sample([0] * sizes[0] + [1] * sizes[1], sum(sizes)))
        field = gf.GF(q)
        count = shapemod._count_series(field, blocks, d, {})
        assert count == _count_series(field, *dense_from_blocks(blocks), d), (q, blocks, d)
        nonzero += count != 0
    assert nonzero >= 15


def change_basis(field, blocks, v, i, j, k):
    """The blocks after coordinate i at vertex v gains k times coordinate j.

    Row i of the block into v gains k times row j, and in both halves of the
    block out of v column j loses k times column i.
    """
    add, mul = field.add, field.mul
    into, out = [row[:] for row in blocks[v]], [row[:] for row in blocks[1 - v]]
    into[i] = [add[x][mul[k][y]] for x, y in zip(into[i], into[j])]
    for row in out:
        for h in (0, len(into)):
            row[h + j] = add[row[h + j]][mul[field.neg[k]][row[h + i]]]
    return (into, out) if v == 0 else (out, into)


def test_shape_modules_in_a_random_basis_keep_their_counts():
    # a random basis at each vertex fills the blocks of a shape module with
    # general entries and leaves its counts, often nonzero, as they were; a
    # plain sparse draw almost never reaches a functional whose c = -f/f_p
    # changes the count
    rng = random.Random(2005)
    shapes = [
        (lam, mu) for lam in partitions_up_to(7) for mu in subpartitions(lam)
        if 3 <= size(lam) - size(mu) <= 5
    ]
    nonzero = 0
    for _ in range(100):
        module = build_module(*rng.choice(shapes), rng.randint(0, 1))
        d = tuple(rng.sample([module.vertex(box) for box in module.boxes], module.dim))
        q = rng.choice((3, 4, 5))
        field = gf.GF(q)
        at = [[box for box in module.boxes if module.vertex(box) == v] for v in (0, 1)]
        blocks = tuple(
            [[int(m.get(src) == dst) for m in (module.left, module.up) for src in at[1 - v]]
             for dst in at[v]]
            for v in (0, 1)
        )
        for _ in range(10):
            v = rng.randint(0, 1)
            if len(blocks[v]) >= 2:
                i, j = rng.sample(range(len(blocks[v])), 2)
                blocks = change_basis(field, blocks, v, i, j, rng.randrange(1, q))
        count = count_flags_fq(module, d, q)
        assert shapemod._count_series(field, blocks, d, {}) == count, (module, d, q, blocks)
        assert _count_series(field, *dense_from_blocks(blocks), d) == count
        nonzero += count != 0
    assert nonzero >= 30
