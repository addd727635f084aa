"""Command-line interface: ``seqaccel <command>`` or ``python -m seqaccel <command>``.

Four subcommands share one option vocabulary:

* ``growth-coeff``  - exponential growth base of an integer sequence,
* ``sum-series``    - (anti-)limit of a series from its term sequence,
* ``accelerate``    - accelerator applied to the raw input sequence,
* ``table``         - per-index view: raw value next to transformed value.

Output is plain text, one result per line, "." as the decimal separator,
byte-identical across repeated invocations. Exit codes: 0 for a defined
result, 2 when the requested cell is undefined, 1 for usage or input
errors ("seqaccel: error: ..."), 3 for an internal failure (its traceback,
then "seqaccel: internal error: <Type>: ..."), 141 if stdout closes early.
"""
from __future__ import annotations

import argparse
import os
import sys

from .estimators import (AtIndex, EvaluationMode, InsufficientTermsError, TakeLast,
                         _require_terms, accelerate_sequence, growth_coefficient, sum_series)
from .scalars import is_defined, render_decimal
from .sequences import (BUILTIN_SEQUENCES, SequenceParseError, UnknownSequenceError,
                        load_sequence, open_source)
from .streams import take
from .transforms import GConvention, Kind, Method, TransformSpec

# name -> (help, pipeline); `table` has neither pipeline nor --mode: it prints --terms rows.
COMMANDS = {
    "growth-coeff": ("estimate s[n+1]/s[n] limit", growth_coefficient),
    "sum-series": ("sum a series from its terms", sum_series),
    "accelerate": ("accelerate the raw sequence", accelerate_sequence),
    "table": ("print raw and transformed values side by side", None),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(lo: int):
    def check(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    check.__name__ = "int"  # argparse names the type in "invalid int value"
    return check


def _parse_mode(text: str) -> EvaluationMode:
    if text == "take-last":
        return TakeLast()
    try:
        if text.startswith("at-index:"):
            return AtIndex(int(text[len("at-index:"):]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad mode {text!r}: expected take-last or at-index:<i>")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seqaccel", description="Convergence acceleration over exact rationals.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, pipeline) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--method", choices=[m.value for m in Method], default="levin",
                       help="accelerator family (default: levin)")
        p.add_argument("--kind", choices=[k.value for k in Kind], default="u",
                       help="remainder model (default: u)")
        p.add_argument("--order", type=_at_least(0), default=2,
                       help="transform order, any k >= 0 (default: 2)")
        p.add_argument("--g-convention", choices=[c.value for c in GConvention], default="text",
                       help="order-0 weight convention for ealg (default: text)")
        p.add_argument("--terms", type=_at_least(0),
                       help="number of input terms to take (take-last mode only, where it is "
                            "required; ignored in at-index mode)")
        p.add_argument("--digits", type=_at_least(1), default=10,
                       help="significant digits in the output (default: 10)")
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--generator", metavar="NAME",
                            help="builtin sequence: " + ", ".join(sorted(BUILTIN_SEQUENCES)))
        source.add_argument("--input", metavar="PATH", help="sequence file, one value per line")
        if pipeline is not None:
            p.add_argument("--mode", type=_parse_mode, default=TakeLast(),
                           help="take-last (default) or at-index:<i>")
    return parser


def _run(args, out) -> int:
    pipeline = COMMANDS[args.command][1]
    if args.terms is None and isinstance(getattr(args, "mode", TakeLast()), TakeLast):
        raise argparse.ArgumentError(None, "--terms is required in take-last mode")
    spec = TransformSpec(Method(args.method), Kind(args.kind), args.order,
                         GConvention(args.g_convention))
    source = open_source(args.generator) if args.input is None else load_sequence(args.input)
    if pipeline is None:
        _require_terms(source, args.terms)
        raw = take(source, args.terms)
        transformed = spec.apply(raw)
        for i in range(args.terms):
            cells = (render_decimal(stream.at(i), args.digits) for stream in (raw, transformed))
            print(i, *cells, sep="\t", file=out)
        return 0
    report = pipeline(spec, source, args.terms, digits=args.digits, mode=args.mode)
    print(report.rendered, file=out)
    if args.command != "accelerate":
        print(f"stable-digits: {report.digits_stable}", file=out)
    return 0 if is_defined(report.estimate) else 2


_parser = None  # built on the first call of `main`, then reused: parsing leaves no state in it


def main(argv=None) -> int:
    global _parser
    try:
        _parser = _parser or build_parser()
        code = _run(_parser.parse_args(argv), sys.stdout)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except SystemExit as exc:  # the parser's own exit: --help, or a usage error
        return exc.code if isinstance(exc.code, int) else 1
    except BrokenPipeError:  # not an input error: point stdout at devnull for the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (argparse.ArgumentError, UnknownSequenceError, SequenceParseError,
            InsufficientTermsError, UnicodeDecodeError, OSError) as exc:  # fixable input
        print(f"seqaccel: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, not a bad input: keep the traceback
        import traceback
        traceback.print_exc()
        print(f"seqaccel: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
