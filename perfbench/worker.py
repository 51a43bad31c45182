"""One fresh worker process; run.py starts one at a time.

    worker.py sweep REPORT [--times FILE] [--spans FILE] -- CLI-ARGS...
    worker.py cases large|fq REPORT [--spans FILE]

``sweep`` runs the CLI's ``main`` on CLI-ARGS, exactly what the
``loopminors`` console script does, and times each case as the gap between
successive reports of the verify sweep it drives.  ``cases`` answers one JSON
case per stdin line with one JSON reply per stdout line until stdin closes.
Both write a JSON report to REPORT.  With ``--spans`` the layer tracer is
installed after the import and the spans are written to FILE.  The worker
runs the pace probe alongside its work (``pace.py``) and reports the probe's
time, which run.py uses to rescale the worker's times and the spans'.

All times exclude interpreter start: the clock starts at this module's first
statement, so they include importing the library.  They also exclude the
probes: every interval is taken with ``pacer.clock``, the spans' included.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from fractions import Fraction  # noqa: E402

from layertrace import Tracer, replace_everywhere  # noqa: E402
from pace import Pacer  # noqa: E402


def _flag(argv: list[str], name: str):
    if name in argv:
        k = argv.index(name)
        value = argv[k + 1]
        del argv[k : k + 2]
        return value
    return None


def _case_timer(sweep, times: array, pacer: Pacer):
    """Wrap a verify sweep generator; record the gap between its reports."""
    clock = pacer.clock

    def timed(*args, **kwargs):
        last = clock()
        for report in sweep(*args, **kwargs):
            now = clock()
            times.append(now - last)
            last = now
            yield report

    return timed


def run_sweep(argv: list[str], report: dict, tracer, pacer: Pacer) -> array:
    import loopminors.cli
    import loopminors.verify as verify

    clock = pacer.clock
    report["import_s"] = clock() - T0
    times = array("d")
    if tracer is not None:
        tracer.install()
    else:
        target = argv[argv.index("verify") + 1]
        sweep = getattr(verify, f"sweep_{target}")
        replace_everywhere(sweep, _case_timer(sweep, times, pacer))
    start = clock()
    try:
        report["exit"] = loopminors.cli.main(argv)
    except SystemExit as exc:
        report["exit"] = exc.code
    end = clock()
    report["work_s"] = end - start
    report["wall_s"] = end - T0
    report["cases"] = len(times)
    report["output_bytes"] = os.path.getsize(argv[argv.index("--out") + 1])
    return times


def large_case(lib, case: dict) -> dict:
    lam, mu, i, word = tuple(case["lambda"]), tuple(case["mu"]), case["parity"], tuple(case["word"])
    routes = {}
    if not mu:
        routes["phi"] = lib.phi_polynomial(lam, i, word).text()
    routes["lindstrom"] = lib.lindstrom_minor(word, mu, lam, i).text()
    g = lib.word_to_loop(word)
    symbolic = lib.minor(g, mu, lam, i)
    routes["toeplitz"] = symbolic.text()
    if not mu:
        routes["pieri"] = lib.pieri_determinant(g, lam, i).text()
    params = [Fraction(p) for p in case["params"]]
    numeric = lib.identity_loop()
    for bit, a in zip(word, params):
        numeric = numeric * lib.generator(bit, a)
    return {
        "routes": routes,
        "numeric": str(lib.minor(numeric, mu, lam, i)),
        "evaluated": str(symbolic.evaluate(params)),
    }


def fq_case(lib, case: dict) -> dict:
    module = lib.build_module(tuple(case["lambda"]), tuple(case["mu"]), case["parity"])
    return {"count": lib.count_flags_fq(module, case["d"], case["q"])}


def run_cases(workload: str, report: dict, tracer, pacer: Pacer) -> None:
    import loopminors as lib

    clock = pacer.clock
    report["import_s"] = clock() - T0
    compute = {"large": large_case, "fq": fq_case}[workload]
    if tracer is not None:
        tracer.install()
    start = clock()
    waited = 0.0
    cases = 0
    while True:
        t = clock()
        line = sys.stdin.readline()
        waited += clock() - t
        if not line:
            break
        case = json.loads(line)
        t = clock()
        try:
            reply = compute(lib, case)
        except Exception as exc:  # a failed case is reported, the run goes on
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        reply["case_s"] = clock() - t
        if "routes" in reply:
            reply["routes"] = {
                k: hashlib.sha256(v.encode("utf-8")).hexdigest() for k, v in reply["routes"].items()
            }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        cases += 1
    end = clock()
    report["work_s"] = end - start - waited
    report["wall_s"] = end - T0 - waited
    report["cases"] = cases


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    spans = _flag(rest, "--spans")
    times_path = _flag(rest, "--times")
    pacer = Pacer()
    tracer = Tracer(pacer.clock) if spans else None
    pacer.start()
    report: dict = {}
    if mode == "sweep":
        report_path = rest[0]
        times = run_sweep(rest[rest.index("--") + 1 :], report, tracer, pacer)
        if times_path:
            with open(times_path, "wb") as handle:
                times.tofile(handle)
    else:
        report_path = rest[1]
        run_cases(rest[0], report, tracer, pacer)
    pacer.stop()
    report.update(pacer.report())
    if tracer is not None:
        report["trace"] = tracer.summary(report["work_s"])
        tracer.dump(spans)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
