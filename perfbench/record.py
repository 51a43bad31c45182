"""Record the answers the benchmark checks against, from the library as it is.

Run from the repository root:

    python3 perfbench/record.py sweep large fq

``sweep`` stores each target's ``verify --verbose`` output; ``large`` the
canonical polynomial digest of each anchor and pool case, after checking that
every route agrees; ``fq`` the brute-force count at every q of each candidate
within the visit budget.  Both pools also store each case's cost in
milliseconds, which only sorts the pool into the strata runs draw from.
Record only from a commit whose outputs are trusted: later runs count any
difference from these files as a failed case.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
import tempfile
import time

import workloads as w


def _write_gz(path: str, text: str) -> None:
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
        handle.write(text.encode("utf-8"))


def record_sweep(src: str) -> None:
    env = dict(os.environ, PYTHONPATH=src)
    for target, args in w.SWEEP:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.txt")
            argv = [sys.executable, "-m", "loopminors.cli", "--out", out, "verify", target, *args, "--verbose"]
            subprocess.run(argv, env=env, check=True)
            with open(out, encoding="utf-8") as handle:
                text = handle.read()
        _write_gz(w.sweep_expected_path(target), text)
        print(f"sweep {target}: {text.count(chr(10)) - 1} cases")


def record_large() -> None:
    import loopminors as lib

    def answer(case: dict) -> tuple[str, float]:
        lam, mu, i, word = (tuple(case[k]) if k != "parity" else case[k] for k in ("lambda", "mu", "parity", "word"))
        start = time.perf_counter()
        g = lib.word_to_loop(word)
        texts = {lib.lindstrom_minor(word, mu, lam, i).text(), lib.minor(g, mu, lam, i).text()}
        if not mu:
            texts |= {lib.phi_polynomial(lam, i, word).text(), lib.pieri_determinant(g, lam, i).text()}
        elapsed = time.perf_counter() - start
        if len(texts) != 1:
            raise SystemExit(f"routes disagree on {case}")
        return w.digest(texts.pop()), elapsed

    anchors = {w.large_key(case): answer(case)[0] for case in w.large_anchors()}
    pool = []
    for n, case in enumerate(w.large_candidates()):
        text_digest, elapsed = answer(case)
        pool.append(dict(case, digest=text_digest, ms=round(1000 * elapsed, 1)))
        if n % 60 == 0:
            print(f"large {n}/{len(w.FAMILY_BANDS) * 2 * w.LARGE_PER_BAND}", flush=True)
    with open(os.path.join(w.EXPECTED, "large_pool.json"), "w", encoding="utf-8") as handle:
        handle.write('{"anchors": ' + json.dumps(anchors, indent=1, sort_keys=True) + ',\n"pool": [\n')
        handle.write(",\n".join(json.dumps(c, sort_keys=True) for c in pool) + "\n]}\n")
    print(f"large: {len(anchors)} anchors, {len(pool)} pool cases")


class _OverBudget(Exception):
    pass


def record_fq() -> None:
    """Count every candidate at every q; keep those within FQ_VISIT_BUDGET.

    The budget bounds the functionals the brute-force search visits at q = 5,
    the largest field, so no case costs more than about a second; some
    candidates visit 60,000 and take ten.
    """
    import loopminors.gf as gf
    from loopminors import build_module, count_flags_fq

    projective_vectors = gf.projective_vectors
    visited = [0]

    def budgeted(field, dim):
        points = projective_vectors(field, dim)
        visited[0] += len(points)
        if visited[0] > w.FQ_VISIT_BUDGET:
            raise _OverBudget
        return points

    def timed(module, d, q) -> tuple[int, float]:
        start = time.perf_counter()
        count = count_flags_fq(module, d, q)
        return count, round(1000 * (time.perf_counter() - start), 2)

    counts, costs = {}, {}
    candidates = w.fq_candidates()
    for n, case in enumerate(candidates):
        module = build_module(case["lambda"], case["mu"], case["parity"])
        gf.projective_vectors = budgeted
        visited[0] = 0
        try:
            top = timed(module, case["d"], max(w.FQ_QS))
        except _OverBudget:
            continue
        finally:
            gf.projective_vectors = projective_vectors
        answers = [timed(module, case["d"], q) for q in w.FQ_QS[:-1]] + [top]
        counts[w.fq_key(case)] = [count for count, _ in answers]
        costs[w.fq_key(case)] = [ms for _, ms in answers]
        if n % 200 == 0:
            print(f"fq {n}/{len(candidates)}", flush=True)
    lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(counts.items()))
    text = '{"counts": {\n' + ",\n".join(lines) + '\n},\n"ms": ' + json.dumps(costs, sort_keys=True) + "}\n"
    _write_gz(os.path.join(w.EXPECTED, "fq_pool.json.gz"), text)
    print(f"fq: {len(counts)} of {len(candidates)} candidates within the budget, x {len(w.FQ_QS)} fields")


def main(argv: list[str]) -> int:
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "loopminors", "__init__.py")):
        print("run from the repository root (src/loopminors not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(w.EXPECTED, exist_ok=True)
    for what in argv or ["sweep", "large", "fq"]:
        {"sweep": lambda: record_sweep(src), "large": record_large, "fq": record_fq}[what]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
