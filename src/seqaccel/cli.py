"""Command-line interface.

Four subcommands share one option vocabulary:

* ``growth-coeff``  - exponential growth base of an integer sequence,
* ``sum-series``    - (anti-)limit of a series from its term sequence,
* ``accelerate``    - accelerator applied to the raw input sequence,
* ``table``         - per-index view: raw value next to transformed value.

Output is plain text, one result per line, "." as the decimal separator,
byte-identical across repeated invocations. Exit codes: 0 for a defined
result, 2 when the requested cell is undefined, 1 for usage or input
errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .estimators import (
    AtIndex,
    EvaluationMode,
    TakeLast,
    accelerate_sequence,
    growth_coefficient,
    sum_series,
)
from .scalars import is_defined, render_decimal
from .sequences import BUILTIN_SEQUENCES, load_sequence, open_source
from .streams import take
from .transforms import GConvention, Kind, Method, TransformSpec

__all__ = ["main", "run", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._exit_with(message))

    def _exit_with(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _parse_mode(text: str) -> EvaluationMode:
    if text == "take-last":
        return TakeLast()
    if text.startswith("at-index:"):
        try:
            return AtIndex(int(text.split(":", 1)[1]))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad mode {text!r}: expected take-last or at-index:<i>"
            ) from None
    raise argparse.ArgumentTypeError(
        f"bad mode {text!r}: expected take-last or at-index:<i>"
    )


def _add_common_options(p: argparse.ArgumentParser, *, with_mode: bool = True) -> None:
    p.add_argument("--method", choices=["ealg", "levin"], default="levin",
                   help="accelerator family (default: levin)")
    p.add_argument("--kind", choices=["t", "u", "v"], default="u",
                   help="remainder model (default: u)")
    p.add_argument("--order", type=int, default=2,
                   help="transform order, any k >= 0 (default: 2)")
    p.add_argument("--g-convention", choices=["text", "code"], default="text",
                   help="order-0 weight convention for ealg (default: text)")
    p.add_argument("--terms", type=int,
                   help="number of input terms to take (required in take-last mode)")
    p.add_argument("--digits", type=int, default=10,
                   help="significant digits in the output (default: 10)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--generator", metavar="NAME",
                        help="builtin sequence: " + ", ".join(sorted(BUILTIN_SEQUENCES)))
    source.add_argument("--input", metavar="PATH", type=Path,
                        help="sequence file, one value per line")
    if with_mode:
        p.add_argument("--mode", type=_parse_mode, default=TakeLast(),
                       help="take-last (default) or at-index:<i>")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seqaccel",
                     description="Convergence acceleration over exact rationals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth-coeff", parents=[], help="estimate s[n+1]/s[n] limit")
    _add_common_options(p)
    p = sub.add_parser("sum-series", help="sum a series from its terms")
    _add_common_options(p)
    p = sub.add_parser("accelerate", help="accelerate the raw sequence")
    _add_common_options(p)
    p = sub.add_parser("table", help="print raw and transformed values side by side")
    _add_common_options(p, with_mode=False)
    return parser


def _build_spec(args) -> TransformSpec:
    return TransformSpec(
        method=Method(args.method),
        kind=Kind(args.kind),
        order=args.order,
        g_convention=GConvention(args.g_convention),
    )


def _resolve_source(args):
    if args.generator is not None:
        return open_source(args.generator)
    return load_sequence(args.input)


def _check_terms(args) -> None:
    mode = getattr(args, "mode", TakeLast())
    if isinstance(mode, TakeLast) and args.terms is None:
        raise ValueError("--terms is required in take-last mode")
    if args.terms is not None and args.terms < 0:
        raise ValueError(f"--terms must be >= 0, got {args.terms}")


def _print_report(report, out) -> int:
    print(report.rendered, file=out)
    print(f"stable-digits: {report.digits_stable}", file=out)
    return 0 if is_defined(report.estimate) else 2


def _run_table(args, out) -> int:
    if args.terms is None:
        raise ValueError("--terms is required for table")
    spec = _build_spec(args)
    raw = take(_resolve_source(args), args.terms)
    transformed = spec.apply(raw)
    for i in range(args.terms):
        left = render_decimal(raw.at(i), args.digits)
        right = render_decimal(transformed.at(i), args.digits)
        print(f"{i}\t{left}\t{right}", file=out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    out = sys.stdout
    try:
        if args.command == "table":
            return _run_table(args, out)
        _check_terms(args)
        spec = _build_spec(args)
        source = _resolve_source(args)
        runner = {
            "growth-coeff": growth_coefficient,
            "sum-series": sum_series,
            "accelerate": accelerate_sequence,
        }[args.command]
        report = runner(spec, source, args.terms, digits=args.digits, mode=args.mode)
        if args.command == "accelerate":
            print(report.rendered, file=out)
            return 0 if is_defined(report.estimate) else 2
        return _print_report(report, out)
    except (ValueError, OSError) as exc:
        print(f"seqaccel: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
