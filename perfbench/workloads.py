"""Workload definitions: the sweep grid, seeded case streams, recorded answers.

Nothing here imports the library.  run.py generates every input from the
seed with its own code (partitions, path counts) and hands the worker plain
JSON, so the program under test only ever sees the generated cases.

* ``sweep``: fixed ``verify --verbose`` grids run through the CLI; the seed is
  unused.  Expected output lines were recorded from the library by
  ``record.py`` and are compared line by line.
* ``large``: the three ROADMAP anchor cases plus (lam, mu, i, word) cases
  drawn from a recorded pool.
* ``fq``: finite-field flag counts drawn from a recorded pool of (lam, mu, i, d)
  entries at q = 2, 3, 4, 5.
"""

from __future__ import annotations

import gzip
import hashlib
import itertools
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected")

WORKLOADS = ("sweep", "large", "fq")

GOLDEN_ARGV = ["minor", "--word", "1,0,1,0", "--mu", "", "--lambda", "2,1", "--parity", "1"]
GOLDEN_OUTPUT = '{"polynomial":"a1*a2^2 + 2*a1*a2*a4 + a1*a4^2 + a3*a4^2"}\n'

# Acceptance grids shrunk so one pass takes about ten seconds.  conjecture1 at
# size 6 is the smallest grid holding the known mismatches ((3,2,1), q = 2, 3).
SWEEP = (
    ("theorem2", ["--max-size", "7", "--max-word", "8"]),
    ("prop1", ["--max-size", "5", "--max-word", "6"]),
    ("pieri", ["--max-size", "6", "--max-word", "8"]),
    ("lindstrom", ["--max-size", "5", "--max-word", "6"]),
    ("conjecture1", ["--max-size", "6", "--q", "2", "--q", "3"]),
)

# The ROADMAP anchors: (lam, mu, parity, word length).  Words start with 1.
LARGE_ANCHORS = (
    ((5, 4, 3, 2, 1), (), 1, 12),
    ((2,) * 8, (), 1, 10),
    ((4, 4, 4, 4), (), 1, 12),
)
# The large pool: LARGE_PER_BAND candidates per (straight/skew, band of path
# family counts).  A pass is the anchors plus LARGE_STRATA drawn cases, about
# 22 seconds at the defining commit, three fifths of it in the anchors; with
# 64 strata of five or six candidates each, the draw moves a pass's cost by
# about 2% from seed to seed.  The two candidates above the cost cap (7-row shapes, 1.6 and 3.4 s at
# recording) would each swing a pass by up to a sixth; the anchors keep the
# largest windows in every pass.
FAMILY_BANDS = ((50, 200), (200, 600), (600, 1500))
LARGE_PER_BAND = 60
LARGE_STRATA = 64
LARGE_COST_CAP_MS = 1500

FQ_DIMS = (5, 6, 7)
FQ_QS = (2, 3, 4, 5)
FQ_STRATA = 100
FQ_BOX = (4, 4)  # outer shapes fit in 4 rows and 4 columns
# Pool entries are the candidates whose brute-force count at q = 5 visits at
# most this many functionals (about a second at most on a 2-core Xeon VM);
# without the cap single cases take up to fifteen seconds.
FQ_VISIT_BUDGET = 10_000


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def alternating(length: int, start: int) -> tuple[int, ...]:
    return tuple((start + t) % 2 for t in range(length))


def bits(values) -> str:
    return ",".join(str(v) for v in values)


# -- partitions and skew shapes (independent of the library) ---------------


def partitions(n: int, max_rows: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n with at most max_rows parts, each at most max_part."""
    cap = n if max_part is None else max_part
    if n == 0:
        return [()]
    if max_rows == 0:
        return []
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, max_rows - 1, first):
            out.append((first,) + rest)
    return out


def contained(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All partitions inside lam (zero parts stripped)."""

    def rec(row: int, cap: int) -> list[tuple[int, ...]]:
        if row == len(lam):
            return [()]
        out = []
        for p in range(min(cap, lam[row]), -1, -1):
            for rest in rec(row + 1, p):
                out.append((p,) + rest)
        return out

    return sorted({tuple(p for p in mu if p) for mu in rec(0, lam[0] if lam else 0)})


def skew_boxes(lam, mu) -> list[tuple[int, int]]:
    return [
        (s, t)
        for s in range(len(lam))
        for t in range(mu[s] if s < len(mu) else 0, lam[s])
    ]


def is_connected(boxes) -> bool:
    cells = set(boxes)
    seen = {boxes[0]}
    stack = [boxes[0]]
    while stack:
        s, t = stack.pop()
        for nb in ((s + 1, t), (s - 1, t), (s, t + 1), (s, t - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


def filling_parities(boxes, i: int) -> list[tuple[int, ...]]:
    """Distinct strings (s + t + i) % 2 read along every standard filling."""
    cells = set(boxes)
    found: set[tuple[int, ...]] = set()
    placed: set[tuple[int, int]] = set()
    seq: list[int] = []

    def extend() -> None:
        if len(seq) == len(boxes):
            found.add(tuple(seq))
            return
        for s, t in boxes:
            if (s, t) in placed:
                continue
            if ((s, t - 1) in cells and (s, t - 1) not in placed) or (
                (s - 1, t) in cells and (s - 1, t) not in placed
            ):
                continue
            placed.add((s, t))
            seq.append((s + t + i) % 2)
            extend()
            seq.pop()
            placed.discard((s, t))

    extend()
    return sorted(found)


# -- path-family counts by Lindstrom-Gessel-Viennot -------------------------


def _det(matrix: list[list[int]]) -> int:
    a = [[Fraction(v) for v in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            factor = a[r][k] / a[k][k]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[k])]
    return int(det)


def family_count(lam, mu, i: int, word) -> int:
    """Number of non-crossing path families, i.e. the minor at a = 1."""
    n = max(len(lam), 1)
    part = lambda p, r: p[r] if r < len(p) else 0  # noqa: E731
    sources = [part(mu, r) + i - r for r in range(n)]
    sinks = [part(lam, r) + i - r for r in range(n)]
    matrix = []
    for u in sources:
        ways = {u: 1}
        for bit in word:
            step: dict[int, int] = {}
            for level, count in ways.items():
                step[level] = step.get(level, 0) + count
                if level % 2 == bit:
                    step[level + 1] = step.get(level + 1, 0) + count
            ways = step
        matrix.append([ways.get(v, 0) for v in sinks])
    return _det(matrix)


# -- the cases of a pass --------------------------------------------------------
#
# Drawn cases come from candidate pools recorded once by record.py, with each
# candidate's answer and its cost in milliseconds at recording.  A run of
# ``count`` passes cuts the pool into ``count`` times the pass size strata of
# equal size by that cost and draws one case from each, so the run's cost
# varies little with the seed; each pass gets one case from every group of
# ``count`` neighbouring strata, so every pass has the same mix of cheap and
# costly cases.  The seed picks which ones.


def cost_strata(items: list, costs: list[float], count: int) -> list[list]:
    """items split into ``count`` groups of consecutive cost, cheapest first."""
    order = sorted(range(len(items)), key=lambda k: (costs[k], k))
    size = len(items) / count
    return [[items[k] for k in order[round(s * size) : round((s + 1) * size)]] for s in range(count)]


def draw_passes(rng: random.Random, strata: list[list], count: int) -> list[list]:
    """``count`` passes, each one item from every group of ``count`` consecutive strata, shuffled."""
    passes: list[list] = [[] for _ in range(count)]
    for g in range(0, len(strata), count):
        group = [rng.choice(stratum) for stratum in strata[g : g + count]]
        rng.shuffle(group)
        for block, item in zip(passes, group):
            block.append(item)
    for block in passes:
        rng.shuffle(block)
    return passes


def _draw_large(rng: random.Random, straight: bool, band) -> dict:
    lo, hi = band
    while True:
        if straight:
            lam = rng.choice(partitions(rng.randint(10, 15), 7))
            mu: tuple[int, ...] = ()
        else:
            lam = rng.choice(partitions(rng.randint(11, 18), 7))
            inner = [m for m in contained(lam) if m and 10 <= sum(lam) - sum(m) <= 15]
            if not inner:
                continue
            mu = rng.choice(inner)
        i = rng.randint(0, 1)
        word = alternating(rng.randint(10, 12), rng.randint(0, 1))
        if lo <= family_count(lam, mu, i, word) < hi:
            return {"lambda": list(lam), "mu": list(mu), "parity": i, "word": list(word)}


def large_anchors() -> list[dict]:
    return [
        {"lambda": list(lam), "mu": list(mu), "parity": i, "word": list(alternating(k, 1))}
        for lam, mu, i, k in LARGE_ANCHORS
    ]


def large_candidates() -> list[dict]:
    """The fixed list large draws come from: LARGE_PER_BAND distinct cases per (straight/skew, band)."""
    rng = rng_for("large-pool", 0)
    seen: set[str] = set()
    out = []
    for straight in (True, False):
        for band in FAMILY_BANDS:
            kept = 0
            while kept < LARGE_PER_BAND:
                case = _draw_large(rng, straight, band)
                if large_key(case) not in seen:
                    seen.add(large_key(case))
                    out.append(case)
                    kept += 1
    return out


def large_passes(seed: int, recorded: dict, count: int) -> list[list[dict]]:
    """``count`` passes: the anchors, then LARGE_STRATA drawn pool cases.

    Pool cases that cost more than LARGE_COST_CAP_MS at recording are left
    out.  Each case carries seeded rational parameters for the numeric minor.
    """
    rng = rng_for("large", seed)
    kept = [c for c in recorded["pool"] if c["ms"] <= LARGE_COST_CAP_MS]
    pool = [{k: c[k] for k in ("lambda", "mu", "parity", "word")} for c in kept]
    strata = cost_strata(pool, [c["ms"] for c in kept], LARGE_STRATA * count)
    return [
        [
            dict(case, params=[str(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in case["word"]])
            for case in large_anchors() + block
        ]
        for block in draw_passes(rng, strata, count)
    ]


def fq_candidates() -> list[dict]:
    """Every (lam, mu, i, d) the fq pool is chosen from, in a fixed order.

    Connected skew shapes lam/mu of size 5 to 7 with lam inside a 4 x 4 box,
    both parities, and every parity string of a standard filling.
    """
    rows, cols = FQ_BOX
    pool = []
    for n in range(min(FQ_DIMS), rows * cols + 1):
        for lam in partitions(n, rows, cols):
            for mu in contained(lam):
                boxes = skew_boxes(lam, mu)
                if len(boxes) not in FQ_DIMS or not is_connected(boxes):
                    continue
                for i in (0, 1):
                    for d in filling_parities(boxes, i):
                        pool.append({"lambda": list(lam), "mu": list(mu), "parity": i, "d": list(d)})
    pool.sort(key=lambda c: (len(c["d"]), c["lambda"], c["mu"], c["parity"], c["d"]))
    return pool


def fq_key(case: dict) -> str:
    """Pool key of a case; the recorded counts under it are listed by FQ_QS."""
    return "|".join(bits(case[k]) for k in ("lambda", "mu", "d")) + f"|{case['parity']}"


def parse_fq_key(key: str) -> dict:
    lam, mu, d, parity = key.split("|")
    return {
        "lambda": [int(v) for v in lam.split(",") if v],
        "mu": [int(v) for v in mu.split(",") if v],
        "parity": int(parity),
        "d": [int(v) for v in d.split(",")],
    }


def fq_passes(seed: int, recorded: dict, count: int) -> list[list[dict]]:
    """``count`` passes of FQ_STRATA cases drawn from the (entry, q) pool."""
    items, costs = [], []
    for key in sorted(recorded["counts"]):
        for q, ms in zip(FQ_QS, recorded["ms"][key]):
            items.append(dict(parse_fq_key(key), q=q))
            costs.append(ms)
    return draw_passes(rng_for("fq", seed), cost_strata(items, costs, FQ_STRATA * count), count)


# -- recorded answers and checks -------------------------------------------


def sweep_expected_path(target: str) -> str:
    return os.path.join(EXPECTED, f"sweep_{target}.txt.gz")


def check_sweep_output(target: str, path: str) -> tuple[int, int]:
    """(attempted, failed) for one verify output file against its record.

    Every recorded line but the final summary is one case.  Lines are compared
    position by position, streaming both files; a differing, missing or extra
    line is one failure, capped at the number of cases.  A missing file fails
    every case.
    """
    attempted = -1
    failed = 0
    if not os.path.exists(path):
        path = os.devnull
    with gzip.open(sweep_expected_path(target), "rt", encoding="utf-8") as want, open(
        path, encoding="utf-8"
    ) as got:
        for expected, line in itertools.zip_longest(want, got):
            attempted += expected is not None
            failed += expected != line
    return attempted, min(failed, attempted)


def load_large_expected() -> dict:
    with open(os.path.join(EXPECTED, "large_pool.json"), encoding="utf-8") as handle:
        return json.load(handle)


def large_key(case: dict) -> str:
    return f"{bits(case['lambda'])}|{bits(case['mu'])}|{case['parity']}|{bits(case['word'])}"


def large_digests(recorded: dict) -> dict[str, str]:
    """Recorded polynomial digest of every case the large stream can draw."""
    return dict(recorded["anchors"], **{large_key(c): c["digest"] for c in recorded["pool"]})


def check_large(case: dict, reply: dict, digests: dict[str, str]) -> bool:
    """Every route gives the recorded polynomial; numeric mode matches evaluation."""
    if "error" in reply:
        return False
    routes = reply["routes"]
    want = {"lindstrom", "toeplitz"} | ({"phi", "pieri"} if not case["mu"] else set())
    if set(routes) != want or set(routes.values()) != {digests.get(large_key(case))}:
        return False
    return reply["numeric"] == reply["evaluated"]


def load_fq_expected() -> dict:
    with gzip.open(os.path.join(EXPECTED, "fq_pool.json.gz"), "rt", encoding="utf-8") as handle:
        return json.load(handle)


def check_fq(case: dict, reply: dict, counts: dict[str, list[int]]) -> bool:
    recorded = counts.get(fq_key(case))
    return "error" not in reply and recorded is not None and recorded[FQ_QS.index(case["q"])] == reply["count"]

