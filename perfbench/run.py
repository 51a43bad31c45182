"""The loopminors benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload sweep|large|fq|all --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  This process starts one fresh
worker interpreter at a time (``worker.py``) and hands it one case after
another; nothing runs in parallel.  A run makes a number of passes over the
workload set by ``--seconds`` (``sweep`` repeats its fixed grid, ``large`` and
``fq`` draw each pass's cases from the seed), times cold CLI calls on the
golden example between passes (``setup_s``), and checks every output against
the recorded answers.  Times are taken at the nominal pace of the machine
(``pace.py``), so that a shared VM's slow stretches do not move them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the run's
first pass untraced as many times as the run has passes and once more traced,
and prints the per-layer metrics, the tracing overhead being the traced pass's
time less the fastest untraced.  The last line of stdout is the JSON result;
the lines before it are the same figures for people, headed by the machine
they were measured on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array

import layertrace
import pace
import workloads as w

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(w.HERE, "worker.py")
LAUNCH = os.path.join(w.HERE, "launch.py")
WORK = os.path.join(w.HERE, ".work")

SETUP_CALLS = 21
# Probes run in this process before and after each golden call, for setup_s's pace.
SETUP_PROBES = 5
# Seconds a run spends on one pass, golden calls included, at the commit that
# defined the benchmark in a quiet stretch of a 2-vCPU Xeon VM; a run makes
# seconds // PASS_SECONDS passes.
PASS_SECONDS = {"sweep": 11.5, "large": 22.0, "fq": 4.3}

# case_p50_ms and case_tail_ms are printed but not part of the result line
# (see README).
END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "cases/s",
    "peak_rss_mb": "MiB",
}


def env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "system": platform.system(),
    }


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def launch(argv: list[str], usage_path: str, **popen_args) -> subprocess.Popen:
    """Start a worker through launch.py, which records its rusage."""
    _fresh(usage_path)
    launcher = [sys.executable, "-S", LAUNCH, usage_path, sys.executable, *argv]
    return subprocess.Popen(launcher, env=env(), **popen_args)


def reap(proc: subprocess.Popen, usage_path: str) -> tuple[int, float]:
    """Wait for a worker; its exit code and peak resident memory in MiB."""
    proc.wait()
    try:
        with open(usage_path, encoding="utf-8") as handle:
            code, kib = (int(v) for v in handle.read().split())
    except (OSError, ValueError):
        return proc.returncode or -1, 0.0
    return code, kib / 1024


def _fresh(*paths: str) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _read_report(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


class Tally:
    """Cases attempted and failed, with the first few failures described."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 5:
            self.notes.append(note)


# -- set-up ------------------------------------------------------------------


def cold_calls(argv: list[str], n: int, tally: Tally | None = None, expect: str | None = None) -> list[float]:
    """Wall time of n fresh interpreters running argv, checking stdout if asked."""
    times = []
    for _ in range(n):
        t = time.perf_counter()
        proc = subprocess.run(argv, env=env(), stdin=subprocess.DEVNULL, capture_output=True, text=True)
        times.append(time.perf_counter() - t)
        if tally is not None:
            ok = proc.returncode == 0 and proc.stdout == expect
            tally.add(1, 0 if ok else 1, f"golden call: exit {proc.returncode}, {proc.stdout!r}")
    return times


def golden_calls(n: int, tally: Tally, probes: list[float]) -> list[float]:
    """Wall times of n cold CLI calls on the golden example, output checked.

    Before and after each call this process runs the pace probe SETUP_PROBES
    times and appends the probe times to ``probes``.
    """
    argv = [sys.executable, "-m", "loopminors.cli", *w.GOLDEN_ARGV]
    times = []
    for _ in range(n):
        probes.extend(pace.timed_probe() for _ in range(SETUP_PROBES))
        times += cold_calls(argv, 1, tally, w.GOLDEN_OUTPUT)
        probes.extend(pace.timed_probe() for _ in range(SETUP_PROBES))
    return times


def paced(report: dict, seconds: float) -> float:
    """``seconds`` of a worker at the nominal pace (see pace.py)."""
    return pace.rescale(seconds, report.get("probe_s", 0.0), report.get("probes", 0))


def paced_trace(report: dict) -> dict:
    """A worker's trace summary with its times at the nominal pace."""
    trace = dict(report["trace"])
    for key in ("wall_s", "top_s"):
        trace[key] = paced(report, trace[key])
    trace["self_s"] = {name: paced(report, s) for name, s in trace["self_s"].items()}
    return trace


def worker_times(report: dict, times) -> array:
    """A worker's case times at the nominal pace (see pace.py)."""
    return array("d", (paced(report, t) for t in times))


def new_pass() -> dict:
    return {"cases": 0, "walls": [], "raw_walls": [], "works": [], "rss_mb": 0.0, "traces": [], "output_bytes": 0}


def add_worker(out: dict, report: dict, rss: float) -> None:
    """Add one worker's report to its pass."""
    out["walls"].append(paced(report, report.get("wall_s", 0.0)))
    out["raw_walls"].append(report.get("wall_s", 0.0))
    out["works"].append(paced(report, report.get("work_s", 0.0)))
    out["rss_mb"] = max(out["rss_mb"], rss)
    if "trace" in report:
        out["traces"].append(paced_trace(report))


# -- sweep -------------------------------------------------------------------


def sweep_pass(tally: Tally, case_s: array, spans: bool = False) -> dict:
    """One pass over the sweep grid, one fresh CLI worker per target."""
    out = new_pass()
    for target, args in w.SWEEP:
        output, report_path, times_path, spans_path, usage_path = (
            os.path.join(WORK, f"sweep_{target}.{ext}") for ext in ("txt", "json", "times", "spans", "usage")
        )
        _fresh(output, report_path, times_path)
        argv = [WORKER, "sweep", report_path, "--times", times_path]
        if spans:
            argv += ["--spans", spans_path]
        argv += ["--", "--out", output, "verify", target, *args, "--verbose"]
        code, rss = reap(launch(argv, usage_path, stdin=subprocess.DEVNULL), usage_path)
        report = _read_report(report_path)
        attempted, failed = w.check_sweep_output(target, output)
        if code != 0 or report.get("exit") != 0:
            failed = attempted
        tally.add(attempted, failed, f"sweep {target}: worker exit {code}, CLI exit {report.get('exit')}, {failed} lines differ")
        if os.path.exists(times_path):
            with open(times_path, "rb") as handle:
                times = array("d")
                times.frombytes(handle.read())
            case_s.extend(worker_times(report, times))
        out["cases"] += attempted
        add_worker(out, report, rss)
        out["output_bytes"] += report.get("output_bytes", 0)
    return out


# -- large and fq: one worker per pass, cases sent over a pipe -----------------


def case_pass(workload: str, groups: list[list[dict]], check, tally: Tally, case_s: array, spans: bool = False) -> dict:
    """One fresh worker per group answers the group's cases one after another."""
    out = new_pass()
    for k, cases in enumerate(groups):
        report_path, usage_path, spans_path = (
            os.path.join(WORK, f"{workload}{k}.{ext}") for ext in ("json", "usage", "spans")
        )
        _fresh(report_path)
        argv = [WORKER, "cases", workload, report_path]
        if spans:
            argv += ["--spans", spans_path]
        proc = launch(argv, usage_path, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        times = []
        for case in cases:
            proc.stdin.write(json.dumps(case) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                tally.add(1, 1, f"{workload}: worker ended before answering {case}")
                break
            reply = json.loads(line)
            if check(case, reply):
                tally.add(1, 0, "")
            else:
                tally.add(1, 1, f"{workload}: {case} -> {reply}")
            times.append(reply["case_s"])
        proc.stdin.close()
        proc.stdout.read()
        proc.stdout.close()
        code, rss = reap(proc, usage_path)
        report = _read_report(report_path)
        if code != 0 or not report:
            tally.add(0, 1, f"{workload}: worker exit {code}")
        case_s.extend(worker_times(report, times))
        out["cases"] += len(cases)
        add_worker(out, report, rss)
    return out


def pass_runners(workload: str, seed: int, count: int) -> list:
    """``count`` functions, each running one pass of the seed's cases: (tally, case_s, spans) -> pass.

    A ``large`` pass runs the anchors and the drawn cases in two workers: the
    anchors set the peak memory, about 127 MiB at the defining commit against
    under 40 for the draws, and the draws run after them in one worker would
    add 0 to 12 MiB of heap left over, by seed and order.
    """
    if workload == "sweep":
        return [sweep_pass] * count
    if workload == "large":
        recorded = w.load_large_expected()
        digests = w.large_digests(recorded)
        anchors = len(w.LARGE_ANCHORS)
        groups = [[cases[:anchors], cases[anchors:]] for cases in w.large_passes(seed, recorded, count)]
        check = lambda case, reply: w.check_large(case, reply, digests)  # noqa: E731
    else:
        recorded = w.load_fq_expected()
        groups = [[cases] for cases in w.fq_passes(seed, recorded, count)]
        check = lambda case, reply: w.check_fq(case, reply, recorded["counts"])  # noqa: E731
    return [
        lambda tally, case_s, spans=False, workers=workers: case_pass(workload, workers, check, tally, case_s, spans)
        for workers in groups
    ]


# -- one run -------------------------------------------------------------------


def pass_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_SECONDS[workload]))


def tail_percent(samples: int) -> float:
    """The highest of a few round percentiles that keeps ten samples beyond it."""
    for pct in (99.9, 99.5, 99.0, 98.5, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 70.0):
        if samples - math.ceil(pct / 100 * samples) >= 10:
            return pct
    return 50.0


def timed_run(workload: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """The seed's passes in fresh workers, golden calls in between.

    The pass count follows from ``seconds`` alone, so parent and change run the
    same work.  Every time is taken at the nominal pace (see pace.py): a
    worker's wall time and its cases' times by the probes it ran, the golden
    calls by the probes this process ran around them.  ``cases_per_s`` is the
    run's cases over the sum of its workers' wall times, and ``setup_s`` the
    median golden call.  The golden calls are spread over the gaps between
    passes; the first call of a run is not timed.
    """
    tally = Tally()
    count = pass_count(workload, seconds)
    per_gap = [len(range(g, SETUP_CALLS, count + 1)) for g in range(count + 1)]
    probes: list[float] = []
    golden_calls(1, tally, [])
    setup_times = golden_calls(per_gap[0], tally, probes)
    case_s = array("d")
    passes = []
    for run_pass, calls in zip(pass_runners(workload, seed, count), per_gap[1:]):
        passes.append(run_pass(tally, case_s))
        setup_times += golden_calls(calls, tally, probes)
    cases = sum(p["cases"] for p in passes)
    wall_s = sum(sum(p["walls"]) for p in passes)
    raw_s = sum(sum(p["raw_walls"]) for p in passes)
    pct = tail_percent(len(case_s))
    info = {
        "passes": count,
        "cases": cases,
        "pace": raw_s / wall_s if wall_s else 1.0,
        "setup_pace": statistics.mean(probes) / pace.NOMINAL_PROBE_S,
        "samples": len(case_s),
        "tail_percentile": pct,
        "case_p50_ms": 1000 * statistics.median(case_s) if case_s else 0.0,
        "case_tail_ms": 1000 * percentile(case_s, pct) if case_s else 0.0,
    }
    metrics = {
        "setup_s": pace.rescale(statistics.median(setup_times), sum(probes), len(probes)),
        "cases_per_s": cases / wall_s if wall_s else 0.0,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return tally, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, info


def traced_run(workload: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """The run's first pass untraced as many times as the run has passes, then traced.

    The overhead is the traced pass's time after import against the fastest
    untraced one, taken per worker; every time at the nominal pace.
    """
    tally = Tally()
    python = [sys.executable, "-c"]
    interpreter = statistics.median(cold_calls(python + ["pass"], SETUP_CALLS + 1)[1:])
    imports = []
    probe = "import time; t = time.perf_counter(); import loopminors; print(time.perf_counter() - t)"
    for _ in range(SETUP_CALLS):
        proc = subprocess.run(python + [probe], env=env(), capture_output=True, text=True)
        imports.append(float(proc.stdout) if proc.returncode == 0 else math.nan)
    count = pass_count(workload, seconds)
    run_pass = pass_runners(workload, seed, count)[0]
    untraced = [run_pass(tally, array("d"))["works"] for _ in range(count)]
    fastest = sum(min(times) for times in zip(*untraced))
    traced = run_pass(tally, array("d"), True)
    merged = layertrace.merge(traced["traces"])
    values = layertrace.layer_metrics(merged)
    values.update({
        "cli.output_bytes": traced["output_bytes"],
        "setup.interpreter_s": interpreter,
        "setup.import_s": statistics.median(imports),
        "trace.untraced_wall_s": fastest,
        "trace.overhead_s": sum(traced["works"]) - fastest,
    })
    info = {"missing": merged["missing"]}
    return tally, {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}, info


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "yield", "coverage")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


# -- output --------------------------------------------------------------------


def describe(workload: str, metrics: dict, tally: Tally, info: dict) -> list[str]:
    lines = []
    for name, m in metrics.items():
        note = ""
        if name == "setup_s":
            note = (f"median of {SETUP_CALLS} cold CLI calls on the golden example, spread between passes; "
                    f"machine at {info['setup_pace']:.3g}x the nominal probe time")
        elif name == "cases_per_s":
            note = (f"{info['cases']} cases in {info['passes']} passes; "
                    f"machine at {info['pace']:.3g}x the nominal probe time")
        elif name == "peak_rss_mb":
            note = "largest worker of a pass, median over passes"
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<8} {note}")
    if "case_p50_ms" in info:
        note = f"median of {info['samples']} case times (not gated)"
        lines.append(f"  {'case_p50_ms':<44} {info['case_p50_ms']:>14.6g} {'ms':<8} {note}")
        beyond = info["samples"] - math.ceil(info["tail_percentile"] / 100 * info["samples"])
        note = f"p{info['tail_percentile']:g} of {info['samples']} case times, {beyond} beyond it (not gated)"
        lines.append(f"  {'case_tail_ms':<44} {info['case_tail_ms']:>14.6g} {'ms':<8} {note}")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    lines.append(f"  {'fail_ratio':<44} {ratio:>14.6g} {'-':<8} {tally.failed} of {tally.attempted} cases failed")
    lines.extend(f"  failure: {note}" for note in tally.notes)
    if info.get("missing"):
        lines.append(f"  warning: not found for tracing: {', '.join(info['missing'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*w.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "loopminors", "__init__.py")):
        print(f"src/loopminors not found under {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    host = machine()
    print(f"perfbench | python {host['python']} | nproc {host['nproc']} | {host['cpu']}")
    chosen = w.WORKLOADS if args.workload == "all" else (args.workload,)
    total = Tally()
    all_metrics: dict = {}
    for workload in chosen:
        if args.trace:
            tally, metrics, info = traced_run(workload, args.seed, args.seconds)
        else:
            tally, metrics, info = timed_run(workload, args.seed, args.seconds)
        print(f"{workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("\n".join(describe(workload, metrics, tally, info)), flush=True)
        total.add(tally.attempted, tally.failed, "")
        prefix = f"{workload}." if args.workload == "all" else ""
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    if not total.attempted:
        print("no case was attempted", file=sys.stderr)
        return 1
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": all_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
