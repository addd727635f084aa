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

import os
import sys
from types import SimpleNamespace

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


def _at_least(lo: int):
    def check(text: str) -> int:
        value = int(text)
        if value < lo:
            from argparse import ArgumentTypeError  # argparse prints its text as the error
            raise ArgumentTypeError(f"must be >= {lo}, got {value}")
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
    from argparse import ArgumentTypeError
    raise ArgumentTypeError(f"bad mode {text!r}: expected take-last or at-index:<i>")


# --option -> add_argument keywords, in help order, for argparse and `_read_plain` alike.
# Exactly one of _SOURCES is required; only a command with a pipeline takes --mode.
_OPTIONS = {
    "--method": {"choices": [m.value for m in Method], "default": "levin",
                 "help": "accelerator family (default: levin)"},
    "--kind": {"choices": [k.value for k in Kind], "default": "u",
               "help": "remainder model (default: u)"},
    "--order": {"type": _at_least(0), "default": 2,
                "help": "transform order, any k >= 0 (default: 2)"},
    "--g-convention": {"choices": [c.value for c in GConvention], "default": "text",
                       "help": "order-0 weight convention for ealg (default: text)"},
    "--terms": {"type": _at_least(0), "help": "number of input terms to take (take-last mode "
                "only, where it is required; ignored in at-index mode)"},
    "--digits": {"type": _at_least(1), "default": 10,
                 "help": "significant digits in the output (default: 10)"},
    "--generator": {"metavar": "NAME",
                    "help": "builtin sequence: " + ", ".join(sorted(BUILTIN_SEQUENCES))},
    "--input": {"metavar": "PATH", "help": "sequence file, one value per line"},
    "--mode": {"type": _parse_mode, "default": TakeLast(),
               "help": "take-last (default) or at-index:<i>"},
}
_SOURCES = ("--generator", "--input")
_COMMAND_OPTIONS = {name: {o: kw for o, kw in _OPTIONS.items() if o != "--mode" or pipeline}
                    for name, (_, pipeline) in COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse exits with status 2 on usage errors; the contract wants 1."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = Parser(prog="seqaccel", description="Convergence acceleration over exact rationals.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        source = p.add_mutually_exclusive_group(required=True)
        for option, keywords in _COMMAND_OPTIONS[name].items():
            (source if option in _SOURCES else p).add_argument(option, **keywords)
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """`build_parser().parse_args(argv)` for a command, then distinct exact options of it, one
    a source, each with a value not starting "-" that its converter and choices take; or None."""
    options = _COMMAND_OPTIONS.get(argv[0] if argv else "")
    given = dict(zip(argv[1::2], argv[2::2]))
    if (options is None or len(given) * 2 != len(argv) - 1 or not given.keys() <= options.keys()
            or sum(source in given for source in _SOURCES) != 1
            or any(text.startswith("-") for text in given.values())):
        return None
    args = {"command": argv[0]}
    for option, spec in options.items():
        text = given.get(option)
        try:
            value = spec.get("default") if text is None else spec.get("type", str)(text)
        except Exception:  # argparse runs the same converter and reports what it raises
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        args[option[2:].replace("-", "_")] = value
    return SimpleNamespace(**args)


def _run(args, out) -> int:
    pipeline = COMMANDS[args.command][1]
    if args.terms is None and isinstance(getattr(args, "mode", TakeLast()), TakeLast):
        print("seqaccel: error: --terms is required in take-last mode", file=sys.stderr)
        return 1
    spec = TransformSpec(Method(args.method), Kind(args.kind), args.order,
                         GConvention(args.g_convention))
    source = open_source(args.generator) if args.input is None else load_sequence(args.input)
    if pipeline is None:
        _require_terms(source, args.terms)
        raw = take(source, args.terms)
        transformed = spec.apply(raw)
        for i in range(args.terms):  # row by row, so a reader that stops early stops the work
            out.write(f"{i}\t{render_decimal(raw.at(i), args.digits)}\t"
                      f"{render_decimal(transformed.at(i), args.digits)}\n")
        return 0
    report = pipeline(spec, source, args.terms, digits=args.digits, mode=args.mode)
    print(report.rendered, file=out)
    if args.command != "accelerate":
        print(f"stable-digits: {report.digits_stable}", file=out)
    return 0 if is_defined(report.estimate) else 2


_parser = None  # built on the first argv `main` leaves to argparse, then reused


def main(argv=None) -> int:
    global _parser
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        if (args := _read_plain(argv)) is None:  # help, abbreviations, --opt=value, errors
            _parser = _parser or build_parser()
            args = _parser.parse_args(argv)
        code = _run(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except SystemExit as exc:  # the parser's own exit: --help, or a usage error
        return exc.code if isinstance(exc.code, int) else 1
    except BrokenPipeError:  # not an input error: point stdout at devnull for the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UnknownSequenceError, SequenceParseError,
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
