"""Run the benchmark over ten seeds per workload, alone or paired with a parent.

    python3 perfbench/series.py --out perfbench/results/NAME.json
    python3 perfbench/series.py --out perfbench/results/NAME.json --parent DIR

Run from the repository root.  Each workload runs ``RUNS`` times untraced,
seeds 1..RUNS, then once traced with seed 1.  The file records the machine,
every run's metrics, and per metric the median and quartiles from
``statistics.quantiles(values, n=4)`` and the spread: the distance between the
quartiles as a share of the median.

With ``--parent``, DIR is a copy of the parent commit; only its ``src/`` is
used, run by this checkout's benchmark (``mkdir DIR && git archive PARENT src
| tar -x -C DIR``).  Each run of this checkout is paired with the same workload
and seed on DIR, back to back, the parent first on odd seeds and second on
even ones, so that a slow stretch of a shared machine falls on both sides of a
pair.  The file then holds both series, ``base`` and ``change``, and
``compare.py`` gives its verdicts from the pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads as w
from run import machine

RUN = os.path.join(w.HERE, "run.py")
RUNS = 10


def load_benchmark() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: float, trace: int, root: str) -> dict:
    """One run of the benchmark on the program under ``root``."""
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def side_record(runs: dict, traces: dict, bench: dict) -> dict:
    """A series file's content for one side: runs, summaries and traces per workload."""
    record = {"machine": machine(), "run_seconds": bench["run_seconds"], "runs": RUNS, "workloads": {}}
    for workload, results in runs.items():
        summary = {}
        for m in bench["end_to_end"]:
            summary[m["name"]] = summarize([r["metrics"][m["name"]] for r in results])
            summary[m["name"]].update(unit=m["unit"], bound=m["bound"])
        record["workloads"][workload] = {
            "runs": results,
            "summary": summary,
            "failed": sum(r["failed"] for r in results),
            "trace": traces[workload],
        }
    return record


def print_spreads(side: str, record: dict) -> None:
    for workload, entry in record["workloads"].items():
        for name, s in entry["summary"].items():
            flag = "" if name == "setup_s" or s["spread"] <= s["bound"] / 3 else "  <-- spread above a third of the bound"
            print(f"  {side:<6} {workload:<6} {name:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {s['bound']}){flag}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--parent", help="a copy of the parent commit to pair every run with")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    roots = {"change": os.getcwd()}
    if args.parent:
        if not os.path.isfile(os.path.join(args.parent, "src", "loopminors", "__init__.py")):
            raise SystemExit(f"{args.parent} holds no src/loopminors")
        roots = {"base": os.path.abspath(args.parent), "change": os.getcwd()}
    runs = {side: {workload: [] for workload in w.WORKLOADS} for side in roots}
    traces = {side: {} for side in roots}
    for workload in w.WORKLOADS:
        for seed in range(1, RUNS + 1):
            for side in (list(roots) if seed % 2 else list(reversed(roots))):
                result = run_once(workload, seed, seconds, 0, roots[side])
                runs[side][workload].append(result)
                print(f"{side} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v:.5g}" for k, v in result["metrics"].items()), flush=True)
        for side, root in roots.items():
            traces[side][workload] = run_once(workload, 1, seconds, 1, root)["metrics"]
    records = {side: side_record(runs[side], traces[side], bench) for side in roots}
    for side, record in records.items():
        print_spreads(side, record)
    out = records["change"] if len(records) == 1 else {"paired": True, **records}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
