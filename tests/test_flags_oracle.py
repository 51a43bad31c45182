"""The vertex-graded stable-functional search against an exhaustive submodule search.

``count_flags_fq`` keeps one block per vertex, the two arrows into it, and
visits only the projective points of the left kernel of the block into the
top vertex, the stable functionals, of the module or of its dual, whichever
has fewer.  It restricts to ker f by dropping f's pivot row from that block
and by a rank-one update, with the pivot column dropped, of the block out of
it, with field arithmetic read from tables, and counts each distinct
restricted module once, through a memo that lives for one call.  The reference below walks the other way, from the bottom, and
never restricts: on dense matrices built here from the module's arrows and
vertices, it grows each submodule V_k by every line at the next vertex
outside V_k, keeps those lines that every arrow takes into V_k, and counts
each submodule it reaches once, keyed by its reduced echelon rows in the
module's own coordinates.  Off the grid both are drawn at F2 and F3
and, separately, at F4 and F5.  A series that asks for more quotients at one
vertex than the module has must count nothing.  Two tests pin counts across
field sizes, which a memo shared between calls would break, and a
dimension-7 case past the benchmark pool's budget.

Every shape module has 0/1 arrows, so its restrictions never read the
rank-one coefficient c = -f/f_p off a general entry.  The last tests hand
``shapemod._count_series`` vertex blocks with general entries and compare it
with the reference on the dense matrices of the same blocks.  On such
blocks the dual module's blocks, ``shapemod._dual``, must give back the
blocks when dualized again and count the reversed series alike, also by the
reference.  Two searches are pinned by the functionals they visit, which
only peeling the end with fewer stable functionals keeps small.
"""

import random
from itertools import product

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from loopminors import gf, shapemod
from loopminors.partitions import partitions_up_to, size, subpartitions
from loopminors.phi import euler_char
from loopminors.shapemod import ARROWS, build_module, count_flags_fq

from conftest import named_arrows


def dense_matrices(module):
    """The four arrows and the two vertex idempotents as dense dim x dim 0/1 matrices."""
    n = module.dim
    index = {box: idx for idx, box in enumerate(module.boxes)}
    named = named_arrows(module)
    arrows = []
    for name in ARROWS:
        mat = [[0] * n for _ in range(n)]
        for src in module.boxes:
            dst = named.get((name, src))
            if dst is not None:
                mat[index[dst]][index[src]] = 1
        arrows.append(mat)
    idempotents = [[[0] * n for _ in range(n)] for _ in (0, 1)]
    for box, idx in index.items():
        idempotents[module.vertex(box)][idx][idx] = 1
    return arrows, idempotents


def mat_vec(field, mat, v):
    out = []
    for row in mat:
        acc = 0
        for a, b in zip(row, v):
            if a and b:
                acc = field.add[acc][field.mul[a][b]]
        out.append(acc)
    return out


def _count_series(field, arrows, idempotents, d):
    """Flags 0 = V_0 < V_1 < ... < V_n = V of submodules, V_k / V_{k-1} = S_{d[k-1]}.

    Each flag is built from the bottom.  V_k, kept as its reduced echelon
    rows (pivot, row), gains a line at vertex d[k] outside V_k that every arrow
    takes into V_k.  The idempotents are diagonal, so V_k is spanned by rows
    at one vertex each, and those lines are the projective points spanned by
    the unit vectors at d[k] that are no pivot of V_k.  A submodule reached
    along two chains is counted once, by its rows.
    """
    add, mul, neg = field.add, field.mul, field.neg
    dim = len(idempotents[0])
    at = [[j for j in range(dim) if E[j][j]] for E in idempotents]
    counts = {}

    def reduce(rows, v):
        for p, row in rows:
            if v[p]:
                factor = mul[neg[v[p]]]
                v = [add[x][factor[y]] for x, y in zip(v, row)]
        return v

    def extensions(rows):
        k = len(rows)
        if k == len(d):
            return 1
        if rows not in counts:
            pivots = {p for p, _ in rows}
            free = [j for j in at[d[k]] if j not in pivots]
            total = 0
            for coeffs in gf.projective_vectors(field, len(free)):
                v = [0] * dim
                for j, c in zip(free, coeffs):
                    v[j] = c
                if any(any(reduce(rows, mat_vec(field, X, v))) for X in arrows):
                    continue
                # v is 1 at its first nonzero entry, its pivot, and 0 at every
                # pivot of V_k: clearing that entry from the rows keeps them reduced
                p = v.index(1)
                grown = [(r, tuple(add[x][mul[neg[row[p]]][y]] for x, y in zip(row, v))) for r, row in rows]
                total += extensions(tuple(sorted(grown + [(p, tuple(v))])))
            counts[rows] = total
        return counts[rows]

    return extensions(())


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


def sparse_case(rng, q):
    """Vertex blocks of 1-3 vectors each with general entries, and a series for them.

    Dense random blocks almost always count 0, so most entries are drawn 0.
    """
    sizes = (rng.randint(1, 3), rng.randint(1, 3))
    blocks = tuple(
        [
            [rng.randrange(1, q) if rng.random() < 0.2 else 0 for _ in range(2 * sizes[1 - v])]
            for _ in range(sizes[v])
        ]
        for v in (0, 1)
    )
    d = tuple(rng.sample([0] * sizes[0] + [1] * sizes[1], sum(sizes)))
    return blocks, d


def test_sparse_general_blocks_match_the_exhaustive_search():
    rng = random.Random(2005)
    nonzero = 0
    for _ in range(60):
        q = rng.choice((3, 4, 5))
        blocks, d = sparse_case(rng, q)
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


def test_the_dual_of_the_dual_is_the_module():
    rng = random.Random(2005)
    for _ in range(60):
        blocks, _ = sparse_case(rng, rng.choice((2, 3, 4, 5)))
        dual = shapemod._dual(blocks)
        assert [len(rows) for rows in dual] == [len(rows) for rows in blocks]
        assert shapemod._dual(dual) == blocks


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_a_module_and_its_dual_count_the_reversed_series_alike(q):
    # annihilators match the series of M with quotients d to those of M* with
    # quotients reversed d; the reference checks the dual blocks on their own
    rng = random.Random(q)
    field = gf.GF(q)
    nonzero = 0
    for _ in range(40):
        blocks, d = sparse_case(rng, q)
        dual = shapemod._dual(blocks)
        count = shapemod._count_series(field, blocks, d, {})
        assert shapemod._count_series(field, dual, d[::-1], {}) == count, (blocks, d)
        assert _count_series(field, *dense_from_blocks(dual), d[::-1]) == count, (blocks, d)
        nonzero += count != 0
    assert nonzero >= 10


@pytest.mark.parametrize(
    "lam, mu, i, d, count, budget",
    [
        # 10,022 and 1,560 functionals when every step peels the top
        ((4, 3, 2, 1), (2, 1), 1, (1, 1, 1, 0, 0, 0, 0), 5396976, 500),
        ((4, 4, 2, 1), (3, 1), 0, (0, 0, 1, 1, 1, 1, 0), 174096, 250),
    ],
)
def test_the_search_peels_the_end_with_fewer_stable_functionals(
    monkeypatch, lam, mu, i, d, count, budget
):
    visited = 0
    projective_vectors = gf.projective_vectors

    def counted(field, dim):
        nonlocal visited
        vectors = projective_vectors(field, dim)
        visited += len(vectors)
        return vectors

    monkeypatch.setattr(gf, "projective_vectors", counted)
    assert count_flags_fq(build_module(lam, mu, i), d, 5) == count
    assert visited <= budget
