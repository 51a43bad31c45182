"""Compare two sides of the benchmark, one row per workload and end-to-end metric.

    python3 perfbench/compare.py PAIRED.json          # from series.py --parent
    python3 perfbench/compare.py BASE.json CHANGE.json

Each row gives both medians and quartiles, the change as a share of the base
(positive is worse) and the bound from BENCHMARK.json; the traced per-layer
values of both sides follow.

Verdicts come only from a paired file, whose two sides ran back to back seed by
seed, so that a slow stretch of the machine falls on both sides of a pair:

* ``regression``: the change's median is worse than the base's by more than
  the bound;
* ``gain``: the change wins at least nine pairs in ten, and the medians differ
  by more than the base's quartile distance;
* ``unresolved``: the base's own spread is wider than the bound, and not every
  change run beats every base run;
* ``same``: none of these.

Two series recorded apart differ by the machine's drift between them as well
as by the program, so they get no verdict: the change column compares the
medians, and the row says whether they are ``within`` or ``beyond`` the bound.
"""

from __future__ import annotations

import json
import sys

from series import load_benchmark, summarize


def pair_verdict(pairs: list[tuple[float, float]], better: str, bound: float) -> tuple[str, float]:
    """Verdict and worsening from (base, change) values measured back to back."""
    base, change = [b for b, _ in pairs], [c for _, c in pairs]
    b, c = summarize(base), summarize(change)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (c["median"] - b["median"]) / b["median"] if b["median"] else 0.0

    def beats(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    if worse_by > bound:
        return "regression", worse_by
    wins = sum(1 for x, y in pairs if beats(y, x))
    if worse_by < 0 and wins >= 0.9 * len(pairs) and abs(c["median"] - b["median"]) > b["q3"] - b["q1"]:
        return "gain", worse_by
    if b["spread"] > bound and not all(beats(y, x) for y in change for x in base):
        return "unresolved", worse_by
    return "same", worse_by


def apart_verdict(base: dict, change: dict, better: str, bound: float) -> tuple[str, float]:
    """Whether two medians recorded apart lie within the bound of each other."""
    sign = 1 if better == "lower" else -1
    worse_by = sign * (change["median"] - base["median"]) / base["median"] if base["median"] else 0.0
    return ("within" if abs(worse_by) <= bound else "beyond"), worse_by


def load(paths: list[str]) -> tuple[dict, dict, bool]:
    """(base, change, paired) from one paired file or two series files."""
    files = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle))
    if len(files) == 1:
        if not files[0].get("paired"):
            raise SystemExit(f"{paths[0]} is not a paired file; give a base and a change file")
        return files[0]["base"], files[0]["change"], True
    if len(files) == 2 and not any(f.get("paired") for f in files):
        return files[0], files[1], False
    raise SystemExit("usage: compare.py PAIRED.json | compare.py BASE.json CHANGE.json")


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    base, change, paired = load(paths)
    metrics = load_benchmark()["end_to_end"]
    for side, record in (("base", base), ("change", change)):
        host = record["machine"]
        print(f"{side + ':':<8}{host['cpu']}, python {host['python']}, nproc {host['nproc']}")
    if not paired:
        print("recorded apart: the medians differ by the machine's drift as well; no verdicts")
    header = f"{'workload':<8} {'metric':<14} {'base median [q1, q3]':<34} {'change median [q1, q3]':<34} {'change':>8} {'bound':>6}  verdict"
    print(header)
    print("-" * len(header))
    regressions = 0
    for workload, b_entry in base["workloads"].items():
        c_entry = change["workloads"].get(workload)
        if c_entry is None:
            print(f"{workload:<8} missing from the change")
            continue
        for m in metrics:
            name = m["name"]
            b, c = b_entry["summary"][name], c_entry["summary"][name]
            if paired:
                pairs = [(x["metrics"][name], y["metrics"][name]) for x, y in zip(b_entry["runs"], c_entry["runs"])]
                word, worse_by = pair_verdict(pairs, m["better"], m["bound"])
            else:
                word, worse_by = apart_verdict(b, c, m["better"], m["bound"])
            regressions += word == "regression"
            print(
                f"{workload:<8} {name:<14} "
                f"{b['median']:<10.5g} [{b['q1']:.5g}, {b['q3']:.5g}]".ljust(58)
                + f" {c['median']:<10.5g} [{c['q1']:.5g}, {c['q3']:.5g}]".ljust(35)
                + f" {100 * worse_by:>+7.1f}% {m['bound']:>6}  {word}"
            )
        if c_entry.get("failed"):
            print(f"{workload:<8} {c_entry['failed']} failed cases in the change")
    for workload, b_entry in base["workloads"].items():
        b_trace = b_entry.get("trace", {})
        c_trace = change["workloads"].get(workload, {}).get("trace", {})
        print(f"\n{workload}: traced per-layer values (base -> change)")
        for name in sorted(set(b_trace) | set(c_trace)):
            print(f"  {name:<44} {b_trace.get(name, float('nan')):>14.6g} -> {c_trace.get(name, float('nan')):<14.6g}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
