"""Batch command-line interface with canonical, diffable output.

Every subcommand writes canonical JSON by default (sorted keys, fixed
separators, one object per line) so identical invocations produce identical
bytes; ``--format text`` switches to a plain rendering.  Partitions are
comma lists with the empty string for the empty partition; words, parity
strings, and contents are comma lists of integers.

Exit codes: 0 on success (including reported conjecture mismatches), 1 for
domain errors and for running out of memory, each reported as one JSON error
line, 2 for bad options (argparse usage errors), 130 for a ``verify`` sweep
ended by an interrupt, after its partial summary.

Each handler imports its route when it runs, so a call loads only the modules
of its subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, LoopMinorsError
from .partitions import check_bits, format_partition, parse_ints, parse_partition


def _parse_bits(text: str) -> tuple[int, ...]:
    return check_bits(parse_ints(text, "bit list"))


# Each option that several subcommands share, declared once: its argparse
# settings and the input-layer reader that ``main`` applies to its text before
# any handler runs, so a handler receives values.
_SHARED = {
    "--shape": ({"required": True}, parse_partition),
    "--lambda": ({"dest": "lam", "required": True}, parse_partition),
    "--mu": ({"default": ""}, parse_partition),
    "--word": ({"required": True}, _parse_bits),
    "--d": ({"required": True}, _parse_bits),
    "--parity": ({"type": int, "choices": (0, 1), "required": True}, None),
}
_READERS = {s.get("dest", flag[2:]): read for flag, (s, read) in _SHARED.items() if read}


def _line_encoder():
    """What ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` gives, from one C
    encoder held for every line where ``JSONEncoder.encode`` builds one per call; the pure
    Python encoder where the C one is missing."""
    python = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    make = json.encoder.c_make_encoder
    if make is None:
        return python.encode
    # (markers, default, encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan)
    held = make(None, python.default, json.encoder.encode_basestring_ascii, None, ":", ",",
                True, False, True)
    return lambda obj: "".join(held(obj, 0))


_dumps = _line_encoder()


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


def cmd_tableaux(args, out: Output) -> None:
    from .tableaux import enumerate_by_parity, enumerate_standard

    if args.d is not None:
        if args.parity is None:
            raise DomainError("--d requires --parity")
        tabs = enumerate_by_parity(args.shape, args.parity, args.d)
    elif args.parity is not None:
        raise DomainError("--parity requires --d")
    else:
        tabs = enumerate_standard(args.shape)
    obj = {"count": len(tabs), "tableaux": [t.to_lists() for t in tabs]}
    out.emit(obj, text="\n".join(str(t.to_lists()) for t in tabs) or "(none)")


def cmd_chess(args, out: Output) -> None:
    from .tableaux import enumerate_chess

    grouped = enumerate_chess(args.shape, args.parity, args.max_label)
    contents = {format_partition(j): [t.to_lists() for t in tabs] for j, tabs in grouped.items()}
    total = sum(len(tabs) for tabs in grouped.values())
    text = "\n".join(f"{key}: {tabs}" for key, tabs in contents.items()) or "(none)"
    out.emit({"count": total, "contents": contents}, text=text)


def cmd_phi(args, out: Output) -> None:
    from .phi import phi_polynomial

    poly = phi_polynomial(args.shape, args.parity, args.word)
    text, terms = poly.text_and_terms() if out.fmt == "json" else (poly.text(), None)
    out.emit({"polynomial": text, "terms": terms}, text=text)


def _load_matrix(path: str):
    from fractions import Fraction

    from .loop import LaurentPoly, LoopElement

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise DomainError(f"cannot read matrix file {path!r}: {exc.strerror}") from exc
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise DomainError(f"matrix file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"matrix file {path!r} must hold one JSON object")
    extra = sorted(set(data) - {"g11", "g12", "g21", "g22"})
    if extra:
        raise DomainError(f"matrix file {path!r} has keys {extra} besides g11, g12, g21 and g22")

    def entry(key: str) -> LaurentPoly:
        raw = data.get(key, {})
        if not isinstance(raw, dict):
            raise DomainError(f"{key} must map t-exponents to coefficients")
        try:
            terms = {int(exp): Fraction(str(coeff)) for exp, coeff in raw.items()}
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad term in {key}: {exc}") from exc
        return LaurentPoly(terms)

    return LoopElement(tuple(tuple(entry(f"g{i}{j}") for j in (1, 2)) for i in (1, 2)), nvars=None)


def cmd_minor(args, out: Output) -> None:
    from .loop import word_to_loop
    from .toeplitz import minor

    if (args.word is None) == (args.matrix is None):
        raise DomainError("provide exactly one of --word or --matrix")
    if args.word is not None:
        text = minor(word_to_loop(args.word), args.mu, args.lam, args.parity).text()
        out.emit({"polynomial": text}, text=text)
    else:
        text = str(minor(_load_matrix(args.matrix), args.mu, args.lam, args.parity))
        out.emit({"value": text}, text=text)


def cmd_pieri(args, out: Output) -> None:
    from .loop import word_to_loop
    from .toeplitz import pieri_determinant

    text = pieri_determinant(word_to_loop(args.word), args.lam, args.parity).text()
    out.emit({"polynomial": text}, text=text)


def cmd_paths(args, out: Output) -> None:
    from .networks import enumerate_families, family_weight, lindstrom_minor, render_family

    families = enumerate_families(args.word, args.mu, args.lam, args.parity)
    total = lindstrom_minor(args.word, args.mu, args.lam, args.parity).text()
    if args.render:
        rendered = [render_family(fam) for fam in families]
        text = None
        if out.fmt == "text":
            blocks = [
                f"weight {family_weight(fam).text()}\n{art}" for fam, art in zip(families, rendered)
            ]
            text = "\n".join(blocks + [f"sum {total}"])
        obj = {"count": len(families), "polynomial": total, "rendered": rendered}
        out.emit(obj, text=text)
    else:
        families_json = [fam.to_json() for fam in families]
        obj = {"count": len(families), "families": families_json, "polynomial": total}
        out.emit(obj, text="\n".join(str(fam) for fam in families_json) or "(none)")


def cmd_module(args, out: Output) -> None:
    from .shapemod import build_module

    obj = build_module(args.lam, args.mu, args.parity).to_json()
    arrows = [f"{src} --{name}--> {dst}" for src, name, dst in obj["arrows"]]
    out.emit(obj, text="\n".join([f"dim {obj['dim']}"] + arrows))


def cmd_points(args, out: Output) -> None:
    from .shapemod import build_module, count_flags_fq

    count = count_flags_fq(build_module(args.lam, args.mu, args.parity), args.d, args.q)
    obj = {"lambda": format_partition(args.lam), "mu": format_partition(args.mu),
           "parity": args.parity, "d": list(args.d), "q": args.q, "count": count}
    out.emit(obj, text=str(count))


def cmd_verify(args, out: Output) -> int:
    from . import verify as verify_mod

    def emitted(reports):
        for report in reports:
            if args.verbose or not report.ok:
                obj = report.to_json()  # the text line only where it is written
                text = f"{obj['status']} {_dumps(obj['case'])}" if out.fmt == "text" else None
                out.emit(obj, text=text)
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
            print(f"warning: {failures} conjecture mismatch(es) reported", file=sys.stderr)
        return 0
    return 1 if failures else 0


# Each subcommand: its help, its handler and its options in ``--help`` order.
# A shared option is its flag, or its flag with the settings that differ here;
# an option of the subcommand's own comes with all its settings.
_COMMANDS = {
    "tableaux": ("standard tableaux of a shape", cmd_tableaux, [
        "--shape", ("--parity", {"required": False}),
        ("--d", {"required": False, "help": "filter by this i-parity string"}),
    ]),
    "chess": ("chess tableaux grouped by content", cmd_chess, [
        "--shape", "--parity", ("--max-label", {"type": int, "required": True}),
    ]),
    "phi": ("flag-counting generating polynomial", cmd_phi, ["--shape", "--parity", "--word"]),
    "minor": ("block-Toeplitz minor", cmd_minor, [
        ("--word", {"required": False, "help": "alternating word, symbolic mode"}),
        ("--matrix", {"help": "JSON Laurent matrix file, numeric mode"}),
        "--mu", "--lambda", "--parity",
    ]),
    "pieri": ("determinant in single-row entries", cmd_pieri, ["--word", "--lambda", "--parity"]),
    "paths": ("non-crossing path families", cmd_paths, [
        "--word", "--mu", "--lambda", "--parity",
        ("--render", {"action": "store_true", "help": "ASCII pictures"}),
    ]),
    "module": ("skew-shape module description", cmd_module, ["--lambda", "--mu", "--parity"]),
    "points": ("finite-field composition-series count", cmd_points, [
        "--lambda", "--mu", "--parity", "--d", ("--q", {"type": int, "required": True}),
    ]),
    "verify": ("cross-route verification sweeps", cmd_verify, [
        ("target", {"choices": ("theorem2", "prop1", "conjecture1", "pieri", "lindstrom")}),
        ("--max-size", {"type": int, "default": 5}),
        ("--max-word", {"type": int, "default": 5}),
        ("--q", {"type": int, "action": "append"}),
        ("--verbose", {"action": "store_true", "help": "stream every case"}),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopminors",
        description="Exact tableau, path, and block-Toeplitz minor computations.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            flag, settings = (option, {}) if isinstance(option, str) else option
            shared = _SHARED[flag][0] if flag in _SHARED else {}
            p.add_argument(flag, **{**shared, **settings})
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Output(args.format, None)  # errors go to stdout until --out is open
    try:
        try:
            out = Output(args.format, args.out)
            for dest, read in _READERS.items():
                if getattr(args, dest, None) is not None:
                    setattr(args, dest, read(getattr(args, dest)))
            return args.func(args, out) or 0  # a handler that only prints returns None
        except (LoopMinorsError, MemoryError) as exc:
            error = {"type": type(exc).__name__, "message": str(exc) or "out of memory"}
        # Emitted past the except clause, once the traceback and the frames it held are let go.
        out.emit({"error": error})
        return 1
    finally:
        out.close()


if __name__ == "__main__":
    sys.exit(main())
