"""Batch command-line interface with canonical, diffable output.

Every subcommand writes canonical JSON by default (sorted keys, fixed
separators, one object per line) so identical invocations produce identical
bytes; ``--format text`` switches to a plain rendering.  Partitions are
comma lists with the empty string for the empty partition; words, parity
strings, and contents are comma lists of integers.

Exit codes: 0 on success (including reported conjecture mismatches), 1 for
domain errors, 2 for bad options (argparse usage errors), 130 for a ``verify``
sweep ended by an interrupt, after its partial summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import verify as verify_mod
from .errors import DomainError, LoopMinorsError
from .loop import LaurentPoly, LoopElement, word_to_loop
from .networks import enumerate_families, family_weight, lindstrom_minor, render_family
from .partitions import check_bits, format_partition, parse_ints, parse_partition
from .phi import phi_polynomial
from .shapemod import build_module, count_flags_fq
from .tableaux import enumerate_by_parity, enumerate_chess, enumerate_standard
from .toeplitz import minor, pieri_determinant


def _parse_bits(text: str) -> tuple[int, ...]:
    return check_bits(parse_ints(text, "bit list"))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Output:
    """Writes and flushes each line as it is emitted, to stdout or a file."""

    def __init__(self, fmt: str, path: str | None):
        self.fmt = fmt
        self.handle = None
        if path:
            try:
                self.handle = open(path, "w", encoding="utf-8")
            except OSError as exc:
                raise DomainError(f"cannot write output file {path!r}: {exc.strerror}") from exc

    def emit(self, obj, text: str | None = None) -> None:
        line = text if self.fmt == "text" and text is not None else _dumps(obj)
        handle = self.handle or sys.stdout
        handle.write(line + "\n")
        handle.flush()

    def close(self) -> None:
        if self.handle:
            self.handle.close()


def cmd_tableaux(args, out: Output) -> int:
    lam = parse_partition(args.shape)
    if args.d is not None:
        if args.parity is None:
            raise DomainError("--d requires --parity")
        tabs = enumerate_by_parity(lam, args.parity, _parse_bits(args.d))
    elif args.parity is not None:
        raise DomainError("--parity requires --d")
    else:
        tabs = enumerate_standard(lam)
    obj = {"count": len(tabs), "tableaux": [t.to_lists() for t in tabs]}
    out.emit(obj, text="\n".join(str(t.to_lists()) for t in tabs) or "(none)")
    return 0


def cmd_chess(args, out: Output) -> int:
    lam = parse_partition(args.shape)
    grouped = enumerate_chess(lam, args.parity, args.max_label)
    contents = {format_partition(j): [t.to_lists() for t in tabs] for j, tabs in grouped.items()}
    total = sum(len(tabs) for tabs in grouped.values())
    text = "\n".join(f"{key}: {tabs}" for key, tabs in contents.items()) or "(none)"
    out.emit({"count": total, "contents": contents}, text=text)
    return 0


def cmd_phi(args, out: Output) -> int:
    lam = parse_partition(args.shape)
    word = _parse_bits(args.word)
    poly = phi_polynomial(lam, args.parity, word)
    obj = {"polynomial": poly.text(), "terms": poly.json_terms()}
    out.emit(obj, text=poly.text())
    return 0


def _load_matrix(path: str) -> LoopElement:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise DomainError(f"cannot read matrix file {path!r}: {exc.strerror}") from exc
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise DomainError(f"matrix file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"matrix file {path!r} must hold one JSON object")
    entries = []
    for i in (1, 2):
        row = []
        for j in (1, 2):
            raw = data.get(f"g{i}{j}", {})
            if not isinstance(raw, dict):
                raise DomainError(f"g{i}{j} must map t-exponents to coefficients")
            try:
                terms = {int(exp): Fraction(str(coeff)) for exp, coeff in raw.items()}
            except (ValueError, ZeroDivisionError) as exc:
                raise DomainError(f"bad term in g{i}{j}: {exc}") from exc
            row.append(LaurentPoly(terms))
        entries.append(tuple(row))
    return LoopElement(tuple(entries), nvars=None)


def cmd_minor(args, out: Output) -> int:
    mu = parse_partition(args.mu)
    lam = parse_partition(args.lam)
    if (args.word is None) == (args.matrix is None):
        raise DomainError("provide exactly one of --word or --matrix")
    if args.word is not None:
        g = word_to_loop(_parse_bits(args.word))
        value = minor(g, mu, lam, args.parity)
        out.emit({"polynomial": value.text()}, text=value.text())
    else:
        g = _load_matrix(args.matrix)
        value = minor(g, mu, lam, args.parity)
        out.emit({"value": str(value)}, text=str(value))
    return 0


def cmd_pieri(args, out: Output) -> int:
    lam = parse_partition(args.lam)
    g = word_to_loop(_parse_bits(args.word))
    value = pieri_determinant(g, lam, args.parity)
    out.emit({"polynomial": value.text()}, text=value.text())
    return 0


def cmd_paths(args, out: Output) -> int:
    mu = parse_partition(args.mu)
    lam = parse_partition(args.lam)
    word = _parse_bits(args.word)
    families = enumerate_families(word, mu, lam, args.parity)
    total = lindstrom_minor(word, mu, lam, args.parity)
    if args.render:
        rendered = [render_family(fam) for fam in families]
        text = None
        if out.fmt == "text":
            blocks = [
                f"weight {family_weight(fam).text()}\n{art}" for fam, art in zip(families, rendered)
            ]
            text = "\n".join(blocks + [f"sum {total.text()}"])
        obj = {"count": len(families), "polynomial": total.text(), "rendered": rendered}
        out.emit(obj, text=text)
        return 0
    obj = {
        "count": len(families),
        "families": [fam.to_json() for fam in families],
        "polynomial": total.text(),
    }
    out.emit(obj, text="\n".join(str(fam.to_json()) for fam in families) or "(none)")
    return 0


def cmd_module(args, out: Output) -> int:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    module = build_module(lam, mu, args.parity)
    obj = module.to_json()
    text = "\n".join(
        [f"dim {obj['dim']}"]
        + [f"{src} --{name}--> {dst}" for src, name, dst in obj["arrows"]]
    )
    out.emit(obj, text=text)
    return 0


def cmd_points(args, out: Output) -> int:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    module = build_module(lam, mu, args.parity)
    d = _parse_bits(args.d)
    count = count_flags_fq(module, d, args.q)
    obj = {
        "lambda": args.lam,
        "mu": args.mu,
        "parity": args.parity,
        "d": list(d),
        "q": args.q,
        "count": count,
    }
    out.emit(obj, text=str(count))
    return 0


def cmd_verify(args, out: Output) -> int:
    def emitted(reports):
        for report in reports:
            if args.verbose or not report.ok:
                obj = report.to_json()
                out.emit(obj, text=f"{obj['status']} {_dumps(obj['case'])}")
            yield report

    reports = verify_mod.sweep(args.target, args.max_size, args.max_word, args.q)
    summary = verify_mod.summarize(emitted(reports))
    failures = summary["failures"]
    interrupted = ", interrupted" if summary.get("interrupted") else ""
    out.emit(summary, text=f"cases {summary['cases']}, failures {failures}{interrupted}")
    if interrupted:
        return 130
    if args.target in verify_mod.REPORT_ONLY:
        if failures:
            print(
                f"warning: {failures} conjecture mismatch(es) reported", file=sys.stderr
            )
        return 0
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopminors",
        description="Exact tableau, path, and block-Toeplitz minor computations.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tableaux", help="standard tableaux of a shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--parity", type=int, choices=(0, 1))
    p.add_argument("--d", help="filter by this i-parity string")
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("chess", help="chess tableaux grouped by content")
    p.add_argument("--shape", required=True)
    p.add_argument("--parity", type=int, choices=(0, 1), required=True)
    p.add_argument("--max-label", type=int, required=True)
    p.set_defaults(func=cmd_chess)

    p = sub.add_parser("phi", help="flag-counting generating polynomial")
    p.add_argument("--shape", required=True)
    p.add_argument("--parity", type=int, choices=(0, 1), required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("minor", help="block-Toeplitz minor")
    p.add_argument("--word", help="alternating word, symbolic mode")
    p.add_argument("--matrix", help="JSON Laurent matrix file, numeric mode")
    p.add_argument("--mu", default="")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--parity", type=int, choices=(0, 1), required=True)
    p.set_defaults(func=cmd_minor)

    p = sub.add_parser("pieri", help="determinant in single-row entries")
    p.add_argument("--word", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--parity", type=int, choices=(0, 1), required=True)
    p.set_defaults(func=cmd_pieri)

    p = sub.add_parser("paths", help="non-crossing path families")
    p.add_argument("--word", required=True)
    p.add_argument("--mu", default="")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--parity", type=int, choices=(0, 1), required=True)
    p.add_argument("--render", action="store_true", help="ASCII pictures")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("module", help="skew-shape module description")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", default="")
    p.add_argument("--parity", type=int, choices=(0, 1), required=True)
    p.set_defaults(func=cmd_module)

    p = sub.add_parser("points", help="finite-field composition-series count")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", default="")
    p.add_argument("--parity", type=int, choices=(0, 1), required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("verify", help="cross-route verification sweeps")
    p.add_argument("target", choices=verify_mod.TARGETS)
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("--max-word", type=int, default=5)
    p.add_argument("--q", type=int, action="append", default=None)
    p.add_argument("--verbose", action="store_true", help="stream every case")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Output(args.format, None)  # errors go to stdout until --out is open
    try:
        out = Output(args.format, args.out)
        return args.func(args, out)
    except LoopMinorsError as exc:
        out.emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1
    finally:
        out.close()


if __name__ == "__main__":
    sys.exit(main())
