import contextlib
import io
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import seqaccel
from seqaccel import (
    BUILTIN_SEQUENCES,
    AtIndex,
    GConvention,
    InsufficientTermsError,
    Kind,
    Method,
    NumStream,
    TakeLast,
    TransformSpec,
    UndefinedReason,
    catalan_stream,
    growth_coefficient,
    is_defined,
    load_sequence,
    open_source,
    render_decimal,
    take,
)
from seqaccel.cli import COMMANDS, main

SRC = Path(__file__).resolve().parent.parent / "src"
README_CATALAN = ["growth-coeff", "--method", "levin", "--kind", "u", "--order", "2",
                  "--generator", "catalan", "--terms", "800", "--digits", "10"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGrowthCoeff:
    def test_catalan_small_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "growth-coeff", "--method", "levin", "--kind", "u", "--order", "2",
            "--generator", "catalan", "--terms", "60", "--digits", "6",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "4.00006"
        assert lines[1].startswith("stable-digits: ")

    def test_defaults_mirror_headline_transform(self, capsys):
        code, out, _ = run_cli(
            capsys, "growth-coeff", "--generator", "catalan", "--terms", "60",
        )
        explicit = main(
            ["growth-coeff", "--method", "levin", "--kind", "u", "--order", "2",
             "--generator", "catalan", "--terms", "60", "--digits", "10"]
        )
        out2 = capsys.readouterr().out
        assert code == explicit == 0
        assert out == out2

    def test_byte_identical_reruns(self, capsys):
        argv = ["growth-coeff", "--generator", "catalan", "--terms", "40"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_digits_past_the_int_str_limit(self, capsys):
        code, out, err = run_cli(capsys, "growth-coeff", "--generator", "catalan",
                                 "--terms", "800", "--digits", "4301")
        assert (code, err) == (0, "")
        assert out.startswith("4.0000000237031992528024697406242262016531")
        assert len(out.splitlines()[0]) == 4302

    def test_levin_order_three_matches_in_process(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "growth-coeff", "--method", "levin", "--kind", "u", "--order", "3",
            "--generator", "catalan", "--terms", "60",
        )
        report = growth_coefficient(
            TransformSpec(Method.LEVIN, Kind.U, 3), catalan_stream(), 60, digits=10
        )
        assert code == 0
        assert out == f"{report.rendered}\nstable-digits: {report.digits_stable}\n"


class TestSumSeries:
    def test_grandi_at_index(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sum-series", "--method", "ealg", "--kind", "t", "--order", "2",
            "--generator", "grandi-terms", "--terms", "8",
            "--mode", "at-index:2", "--digits", "6",
        )
        assert code == 0
        assert out.splitlines()[0] == "0.500000"

    def test_grandi_take_last(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sum-series", "--method", "ealg", "--kind", "t", "--order", "2",
            "--generator", "grandi-terms", "--terms", "8", "--digits", "6",
        )
        assert code == 0
        assert out.splitlines()[0] == "0.500000"

    def test_terms_ignored_in_at_index_mode(self, capsys):
        # --terms counts the input only in take-last mode; at-index reads
        # the untruncated source, with or without it.
        argv = ["sum-series", "--method", "ealg", "--kind", "t", "--order", "2",
                "--generator", "grandi-terms", "--mode", "at-index:2", "--digits", "6"]
        runs = [run_cli(capsys, *argv, *terms) for terms in ([], ["--terms", "3"],
                                                             ["--terms", "8"], ["--terms", "300"])]
        assert runs == [(0, "0.500000\nstable-digits: 6\n", "")] * 4

    def test_alternating_naturals(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sum-series", "--method", "ealg", "--kind", "u", "--order", "4",
            "--generator", "alt-naturals", "--terms", "12", "--digits", "6",
        )
        assert code == 0
        assert out.splitlines()[0] == "0.250000"

    def test_leibniz_past_the_digit_limit(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sum-series", "--generator", "leibniz-pi4-terms", "--terms", "6000",
            "--digits", "15",
        )
        assert (code, out, err) == (0, "0.785398163397448\nstable-digits: 15\n", "")

    def test_undefined_result_exits_2(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sum-series", "--method", "ealg", "--kind", "t", "--order", "2",
            "--generator", "grandi-terms", "--terms", "3",
        )
        assert code == 2
        assert out.splitlines()[0].startswith("undefined(")


class TestAccelerate:
    def test_order_zero_echoes_last_input(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("4\n5\n6\n")
        code, out, _ = run_cli(
            capsys,
            "accelerate", "--method", "levin", "--kind", "t", "--order", "0",
            "--input", str(path), "--terms", "3", "--digits", "3",
        )
        assert code == 0
        assert out == "6.00\n"

    def test_at_index_on_file(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1\n0\n1\n0\n1\n")
        code, out, _ = run_cli(
            capsys,
            "accelerate", "--method", "levin", "--kind", "t", "--order", "1",
            "--input", str(path), "--mode", "at-index:1", "--digits", "4",
        )
        assert code == 0
        assert out == "0.5000\n"


class TestTable:
    def test_rows_are_tab_separated(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--method", "levin", "--kind", "t", "--order", "1",
            "--generator", "grandi-terms", "--terms", "5", "--digits", "4",
        )
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert len(rows) == 5
        assert rows[0] == ["0", "1.000", "0.000"]
        assert all(len(r) == 3 for r in rows)
        assert rows[4][0] == "4"
        assert rows[4][2] == "undefined(out-of-range)"

    def test_printed_column_reads_back(self, capsys, tmp_path):
        # Catalan numbers from C(10) = 16796 on print in scientific
        # notation at 4 digits; the printed column is read back through --input.
        table = ["table", "--order", "0", "--terms", "30", "--digits", "4"]
        code, out, _ = run_cli(capsys, *table, "--generator", "catalan")
        column = [line.split("\t")[1] for line in out.splitlines()]
        assert code == 0 and "1.680e4" in column and "1.002e15" in column
        path = tmp_path / "printed.txt"
        path.write_text("\n".join(column) + "\n")
        code, again, err = run_cli(capsys, *table, "--input", str(path))
        assert (code, err) == (0, "")
        assert [line.split("\t")[1] for line in again.splitlines()] == column
        # A transformed column with undefined cells reads back too.
        ealg = ["table", "--method", "ealg", "--kind", "v", "--order", "3",
                "--generator", "plain-lambda", "--terms", "10", "--digits", "8"]
        code, out, _ = run_cli(capsys, *ealg)
        column = [line.split("\t")[2] for line in out.splitlines()]
        assert code == 0 and "undefined(div-by-zero)" in column and "2.0000000" in column
        path.write_text("\n".join(column) + "\n")
        code, again, err = run_cli(capsys, "table", "--order", "0", "--terms", "10",
                                   "--digits", "8", "--input", str(path))
        assert (code, err) == (0, "")
        assert [line.split("\t")[1:] for line in again.splitlines()] == [[c, c] for c in column]

    # Undefined lines, zero rows, exponent literals and a long literal, then a
    # smooth file whose transformed cells are mostly defined.
    FILES = {
        "mixed": ["# comment line", "1/2", "0", "-0.0", "undefined(div-by-zero)", "3.25e2",
                  "-1.5E-3", "1" * 4400, "0", "-7/3", "undefined(out-of-range)", "2.5e-1",
                  "0.75  # trailing comment", "4", "4", "-0." + "3" * 4400],
        "smooth": [f"{(-1) ** i * (i + 1)}.{7 * i % 10}5e-{i % 4}" if i % 5 else
                   f"{i + 1}/{2 * i + 3}" for i in range(13)],
    }

    @pytest.mark.parametrize("method", Method, ids=lambda m: m.value)
    def test_rows_match_a_per_cell_render(self, capsys, tmp_path, method):
        # Byte for byte against the rows built one cell at a time,
        # render_decimal(stream.at(i), d), with --terms past the transformed end.
        digits = iter([1, 3, 10, 12] * 30)
        for name, lines in self.FILES.items():
            path = tmp_path / f"{name}.txt"
            path.write_text("\n".join(lines) + "\n")
            for kind, order, convention in [(k, o, c) for k in Kind for o in range(5)
                                            for c in GConvention]:
                d = next(digits)
                for terms in (0, load_sequence(path).length):
                    raw = take(load_sequence(path), terms)
                    transformed = TransformSpec(method, kind, order, convention).apply(raw)
                    want = "".join(f"{i}\t{render_decimal(raw.at(i), d)}\t"
                                   f"{render_decimal(transformed.at(i), d)}\n"
                                   for i in range(terms))
                    got = run_cli(capsys, "table", "--method", method.value, "--kind", kind.value,
                                  "--order", str(order), "--g-convention", convention.value,
                                  "--terms", str(terms), "--digits", str(d), "--input", str(path))
                    assert got == (0, want, ""), (name, kind, order, convention, terms)

    def test_exponent_out_of_range_exits_1(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1\n1e999999999\n")
        code, out, err = run_cli(capsys, "table", "--input", str(path), "--terms", "2")
        assert (code, out) == (1, "")
        assert "line 2" in err and "exponent out of range" in err


class TestUsageErrors:
    def test_unknown_generator(self, capsys):
        code, _, err = run_cli(
            capsys, "growth-coeff", "--generator", "nope", "--terms", "10",
        )
        assert code == 1
        assert "unknown" in err

    def test_missing_source(self, capsys):
        code, _, err = run_cli(capsys, "growth-coeff", "--terms", "10")
        assert code == 1

    def test_both_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1\n")
        code, _, err = run_cli(
            capsys, "growth-coeff", "--generator", "catalan",
            "--input", str(path), "--terms", "10",
        )
        assert code == 1

    def test_missing_terms_in_take_last_mode(self, capsys):
        code, _, err = run_cli(capsys, "growth-coeff", "--generator", "catalan")
        assert code == 1
        assert "--terms" in err

    def test_negative_order_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "growth-coeff", "--method", "levin", "--order", "-1",
            "--generator", "catalan", "--terms", "10",
        )
        assert code == 1
        assert "order" in err.lower()

    @pytest.mark.parametrize("option,enum", [
        ("--method", Method), ("--kind", Kind), ("--g-convention", GConvention)])
    def test_invalid_choice_lists_the_enum_values(self, capsys, option, enum):
        code, _, err = run_cli(capsys, "table", option, "bogus", "--generator", "catalan",
                               "--terms", "3")
        assert code == 1
        listed = err.rsplit("(choose from ", 1)[1].rstrip(")\n")
        assert listed.replace("'", "").split(", ") == [member.value for member in enum]

    def test_bad_mode_string(self, capsys):
        code, _, err = run_cli(
            capsys,
            "growth-coeff", "--generator", "catalan", "--terms", "10",
            "--mode", "sideways",
        )
        assert code == 1

    def test_explicit_take_last_matches_default(self, capsys):
        explicit = run_cli(capsys, *README_CATALAN, "--mode", "take-last")
        assert explicit == run_cli(capsys, *README_CATALAN)
        assert explicit == (0, "4.000000024\nstable-digits: 10\n", "")

    @pytest.mark.parametrize("mode", ["at-index:-1", "at-index:", "at-index:x"])
    def test_malformed_at_index(self, capsys, mode):
        code, out, err = run_cli(capsys, "growth-coeff", "--generator", "catalan",
                                 "--terms", "10", "--mode", mode)
        assert (code, out) == (1, "")
        assert f"bad mode '{mode}': expected take-last or at-index:<i>" in err

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "growth-coeff", "--input", str(tmp_path / "missing.txt"),
            "--terms", "5",
        )
        assert code == 1

    def test_file_parse_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1\nbogus\n")
        code, _, err = run_cli(
            capsys, "growth-coeff", "--input", str(path), "--terms", "2",
        )
        assert code == 1
        assert "line 2" in err

    def test_insufficient_terms(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1\n2\n")
        code, _, err = run_cli(
            capsys, "growth-coeff", "--input", str(path), "--terms", "10",
        )
        assert code == 1
        assert "terms" in err


# Every input error, on every command: (argv, a fragment of stderr).
# MISSING stands for a path that does not exist, SHORT for a file of 3 terms.
MISSING = "missing.txt"
SHORT = "short.txt"
INPUT_ERRORS = {
    "no-terms": (["--generator", "catalan"], "--terms is required"),
    "negative-terms": (["--generator", "catalan", "--terms", "-1"],
                       "argument --terms: must be >= 0, got -1"),
    "zero-digits": (["--generator", "catalan", "--terms", "10", "--digits", "0"],
                    "argument --digits: must be >= 1, got 0"),
    "negative-order": (["--generator", "catalan", "--terms", "10", "--order", "-1"],
                       "argument --order: must be >= 0, got -1"),
    "unknown-generator": (["--generator", "nope", "--terms", "10"],
                          "unknown builtin sequence 'nope'"),
    "missing-file": (["--input", MISSING, "--terms", "5"], MISSING),
    "file-shorter-than-terms": (["--input", SHORT, "--terms", "6"],
                                "source provides 3 terms, 6 requested"),
}


class TestInputErrorMatrix:
    @pytest.mark.parametrize("case", INPUT_ERRORS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_exit_1_with_message(self, capsys, tmp_path, command, case):
        args, fragment = INPUT_ERRORS[case]
        (tmp_path / SHORT).write_text("1\n2\n3\n")
        args = [str(tmp_path / a) if a in (MISSING, SHORT) else a for a in args]
        code, out, err = run_cli(capsys, command, *args)
        assert code == 1
        assert out == ""
        assert fragment in err
        assert "error:" in err and "internal error" not in err

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "seq.bin"
        path.write_bytes(b"1\n\xff\xfe\n")
        code, _, err = run_cli(capsys, "table", "--input", str(path), "--terms", "2")
        assert code == 1
        assert "seqaccel: error:" in err


class TestInternalErrors:
    @pytest.mark.parametrize("failure", [ValueError, ArithmeticError])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_failing_source_cell_exits_3(self, capsys, monkeypatch, command, failure):
        def cell(i):
            raise failure(f"no cell {i}")

        monkeypatch.setitem(BUILTIN_SEQUENCES, "broken", lambda: NumStream(cell))
        code, out, err = run_cli(capsys, command, "--generator", "broken", "--terms", "5")
        assert code == 3
        assert out == ""
        assert f"seqaccel: internal error: {failure.__name__}: no cell " in err
        assert "seqaccel: error:" not in err


class TestPythonDashM:
    @pytest.mark.parametrize("module", ["seqaccel", "seqaccel.cli"])
    def test_prints_the_readme_value(self, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, *README_CATALAN],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert (proc.returncode, proc.stdout) == (0, "4.000000024\nstable-digits: 10\n")


class TestClosedStdout:
    def test_a_reader_that_stops_early_is_not_an_input_error(self):
        # The rows outrun the pipe buffer, so writes after the reader closes fail.
        proc = subprocess.Popen(
            [sys.executable, "-m", "seqaccel", "table", "--generator", "catalan",
             "--terms", "3000", "--digits", "12"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert first == b"0\t1.00000000000\tundefined(zero-over-zero)\n"
        assert err == b""


class TestGConventionFlag:
    @pytest.mark.parametrize("convention,expected_first", [
        ("text", "3.97959"),
        ("code", "3.87713"),
    ])
    def test_conventions_give_distinct_estimates(self, capsys, convention, expected_first):
        code, out, _ = run_cli(
            capsys,
            "growth-coeff", "--method", "ealg", "--kind", "t", "--order", "2",
            "--g-convention", convention,
            "--generator", "catalan", "--terms", "100", "--digits", "6",
        )
        assert code == 0
        assert out.splitlines()[0] == expected_first


# What the README, tests and benchmark import from `seqaccel`; nothing more.
PUBLIC_API = {
    "Undefined", "UndefinedReason", "is_defined", "parse_scalar", "render_decimal",
    "NumStream", "forward_difference", "from_function", "from_values", "iota",
    "last_defined", "partial_sums", "take",
    "GConvention", "Kind", "Method", "TransformSpec", "aitken", "e_algorithm",
    "g_algorithm", "levin",
    "BUILTIN_SEQUENCES", "SequenceParseError", "alternating_naturals_terms",
    "catalan_stream", "grandi_terms", "leibniz_pi4_terms", "load_sequence",
    "open_source", "plain_lambda_terms_stream",
    "AccelerationReport", "AtIndex", "InsufficientTermsError", "TakeLast",
    "accelerate_sequence", "growth_coefficient", "ratio_stream", "sum_series",
}


def test_package_init_is_the_one_export_list():
    public = {name for name, value in vars(seqaccel).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == PUBLIC_API and len(PUBLIC_API) == 38
    assert [p.name for p in (SRC / "seqaccel").glob("*.py") if "__all__" in p.read_text()] == []


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # Over valid commands, usage errors (exit 1), --help (exit 0), an unknown
    # generator and an empty argv, run forward and backward, every call prints
    # and exits as a call that argparse reads with a freshly built parser does.
    # A plain command line builds no parser, even where its run then fails; the
    # first argv left to argparse builds one, and later calls reuse it.
    from seqaccel import cli

    argvs = [
        README_CATALAN,
        ["table", "--method", "ealg", "--kind", "t", "--order", "3", "--g-convention", "code",
         "--generator", "leibniz-pi4-terms", "--terms", "12", "--digits", "8"],
        ["sum-series", "--generator", "grandi-terms", "--terms", "3"],
        ["growth-coeff", "--order", "-1", "--generator", "catalan", "--terms", "10"],
        ["accelerate", "--generator", "catalan"],
        ["table", "--mode", "at-index:1", "--generator", "catalan", "--terms", "4"],
        ["--help"],
        ["table", "--help"],
        ["growth-coeff", "--generator", "nope", "--terms", "10"],
        [],
        ["sum-series", "--mode", "at-index:2", "--method", "ealg", "--kind", "t",
         "--generator", "grandi-terms", "--digits", "6"],
    ]
    plain = [0, 1, 2, 4, 8, 10]
    assert [n for n, argv in enumerate(argvs) if cli._read_plain(argv) is not None] == plain
    built = []
    build = cli.build_parser

    def counted_build():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted_build)
    want = []
    with monkeypatch.context() as every_argv_to_argparse:
        every_argv_to_argparse.setattr(cli, "_read_plain", lambda argv: None)
        for argv in argvs:
            every_argv_to_argparse.setattr(cli, "_parser", None)
            want.append(run_cli(capsys, *argv))
    assert {code for code, _, _ in want} == {0, 1, 2} and len(built) == len(argvs)
    assert all(out or err for _, out, err in want)
    monkeypatch.setattr(cli, "_parser", None)
    built.clear()
    for n in plain:
        assert run_cli(capsys, *argvs[n]) == want[n], argvs[n]
    assert built == [] and cli._parser is None
    for order in (range(len(argvs)), reversed(range(len(argvs)))):
        for n in order:
            assert run_cli(capsys, *argvs[n]) == want[n], argvs[n]
    assert len(built) == 1 and cli._parser is built[0]


# A plain command line with zero, one or two sources, then up to three edits that
# argparse may read in another way: an abbreviated or unknown option, --opt=value,
# help, "--", a repeated or missing option or value, and values that are negative,
# malformed, empty, start with "-" or are in non-ASCII digits.
_GOOD_VALUES = {
    "--method": ["levin", "ealg"], "--kind": ["t", "u", "v"],
    "--order": ["0", "2", "\u0663", " 3", "1_0"], "--g-convention": ["text", "code"],
    "--terms": ["0", "12", "\u0668", "+4 "], "--digits": ["1", "6", "\u0665"],
    "--generator": ["catalan", "nope", "", "table"], "--input": ["seq.txt", ""],
    "--mode": ["take-last", "at-index:2", "at-index:\u0663"],
}
_BAD_TOKENS = ["--gen", "--meth", "--t", "--in", "--g", "--mo", "-h", "--help", "--", "-x",
               "-1", "-", "x", "0", "", "2.0", "aitken", "TEXT", "at-index:", "at-index:-1"]


@st.composite
def _command_lines(draw) -> list[str]:
    sources = [["--generator"], ["--input"]] * 2 + [[], ["--generator", "--input"]]
    others = [option for option in _GOOD_VALUES if option not in ("--generator", "--input")]
    options = draw(st.lists(st.sampled_from(others), unique=True))
    for source in draw(st.sampled_from(sources)):
        options.insert(draw(st.integers(0, len(options))), source)
    argv = [draw(st.sampled_from(list(COMMANDS)))]
    for option in options:
        argv += [option, draw(st.sampled_from(_GOOD_VALUES[option]))]
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.integers(0, len(argv)))
        option = draw(st.sampled_from(list(_GOOD_VALUES) + _BAD_TOKENS))
        token = draw(st.sampled_from(_BAD_TOKENS + _GOOD_VALUES.get(option, [])))
        edit = draw(st.sampled_from(["insert", "join", "replace", "value", "delete"]))
        if edit in ("insert", "join"):
            argv[where:where] = [option, token] if edit == "insert" else [f"{option}={token}"]
        elif edit == "value" and len(argv) > 2:  # the value after an option
            argv[2 * draw(st.integers(1, (len(argv) - 1) // 2))] = token
        elif where < len(argv):
            argv[where:where + 1] = [token] if edit == "replace" else []
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=_command_lines())
def test_plain_reader_gives_the_namespace_argparse_gives(argv):
    # `main` reads an argv itself or leaves it to argparse: what it reads, it reads
    # as argparse does, and it leaves every argv that argparse rejects or answers.
    from seqaccel import cli

    read = cli._read_plain(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            parsed = None
    assert read is None or vars(read) == parsed


# The documented input grammar: one literal per line (integer, p/q, or a
# decimal with an optional exponent), "undefined(<cause>)", "#" comments and
# blank lines. Long literals pass the interpreter's 4300-digit int<->str limit.
_SIGNS = st.sampled_from(["", "+", "-"])
_DIGITS = st.text("0123456789", min_size=1, max_size=12)


@st.composite
def _literals(draw) -> str:
    sign, whole = draw(_SIGNS), draw(_DIGITS)
    form = draw(st.sampled_from(["int", "p/q", "decimal"]))
    if form == "p/q":
        return f"{sign}{whole}/{draw(_DIGITS.filter(lambda d: d.strip('0')))}"
    if form == "decimal":
        frac = draw(st.sampled_from(["", "."])) and "." + draw(_DIGITS)
        exponent = draw(st.sampled_from(["", "e", "E"]))
        if exponent:
            zeros = "0" * draw(st.integers(0, 2))
            exponent += draw(_SIGNS) + zeros + str(draw(st.integers(0, 40)))
        return sign + whole + frac + exponent
    return sign + whole


@st.composite
def _long_literals(draw) -> str:
    """A literal of 4301 to 4500 digits, from a repeated seed."""
    sign, whole, seed = draw(_SIGNS), draw(_DIGITS), draw(_DIGITS)
    size = draw(st.integers(4301, 4500))
    digits = (seed * (size // len(seed) + 1))[:size]
    return draw(st.sampled_from([sign + digits, f"{sign}{whole}/1{digits}",
                                 f"{sign}{digits}/{digits[:5]}7", f"{sign}{whole}.{digits}"]))


@st.composite
def _lines(draw) -> str:
    value = draw(_literals() | st.sampled_from(
        [f"undefined({reason.value})" for reason in UndefinedReason]))
    return draw(st.sampled_from(["", " ", "# note"])) or value + draw(
        st.sampled_from(["", "  ", " # note", "#"]))


@st.composite
def _invocations(draw) -> dict:
    run = {"command": draw(st.sampled_from(list(COMMANDS))),
           "method": draw(st.sampled_from(["levin", "ealg"])),
           "kind": draw(st.sampled_from(["t", "u", "v"])),
           "order": draw(st.integers(0, 4) | st.integers(0, 12)),
           "convention": draw(st.sampled_from(["text", "code"])),
           "digits": draw(st.integers(1, 30) | st.just(4301)),
           "index": None}
    if run["command"] != "table" and draw(st.booleans()):
        run["index"] = draw(st.integers(0, 40))
    if draw(st.booleans()):
        run["generator"], most = draw(st.sampled_from(sorted(BUILTIN_SEQUENCES))), 40
    else:
        run["lines"] = lines = draw(st.lists(_lines(), max_size=30))
        # Long literals only up to order 4: the E-algorithm table route is slow on them.
        for _ in range(draw(st.integers(0, 2)) if run["order"] <= 4 else 0):
            lines.insert(draw(st.integers(0, len(lines))), draw(_long_literals()))
        most = len(lines) + 2  # files a little too short exit 1
    run["terms"] = draw(st.integers(0, most)) if run["index"] is None or draw(st.booleans()) \
        else None
    return run


def _argv(run: dict, path: str) -> list[str]:
    argv = [run["command"], "--method", run["method"], "--kind", run["kind"],
            "--order", str(run["order"]), "--g-convention", run["convention"],
            "--digits", str(run["digits"])]
    argv += ["--generator", run["generator"]] if "generator" in run else ["--input", path]
    if run["terms"] is not None:
        argv += ["--terms", str(run["terms"])]
    if run["index"] is not None:
        argv += ["--mode", f"at-index:{run['index']}"]
    return argv


def _library_run(run: dict, path: str) -> tuple[int, str]:
    """The exit code and stdout `main` should give, from the library alone."""
    source = open_source(run["generator"]) if "generator" in run else load_sequence(path)
    spec = TransformSpec(Method(run["method"]), Kind(run["kind"]), run["order"],
                         GConvention(run["convention"]))
    digits, terms = run["digits"], run["terms"]
    if run["command"] == "table":
        if source.length is not None and source.length < terms:
            return 1, ""
        raw = take(source, terms)
        transformed = spec.apply(raw)
        return 0, "".join(f"{i}\t{render_decimal(raw.at(i), digits)}\t"
                          f"{render_decimal(transformed.at(i), digits)}\n" for i in range(terms))
    mode = TakeLast() if run["index"] is None else AtIndex(run["index"])
    try:
        report = COMMANDS[run["command"]][1](spec, source, terms, digits=digits, mode=mode)
    except InsufficientTermsError:
        return 1, ""
    text = report.rendered + "\n"
    if run["command"] != "accelerate":
        text += f"stable-digits: {report.digits_stable}\n"
    return 0 if is_defined(report.estimate) else 2, text


class TestGrammarFuzz:
    @settings(max_examples=300, deadline=None)
    @given(run=_invocations())
    def test_in_grammar_calls_match_the_library(self, run):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "seq.txt")
            if "lines" in run:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("".join(line + "\n" for line in run["lines"]))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(_argv(run, path))
            assert code in (0, 1, 2), err.getvalue()
            if run["command"] != "table":
                assert (code == 2) == out.getvalue().startswith("undefined(")
            assert (code, out.getvalue()) == _library_run(run, path)
            assert err.getvalue().startswith("seqaccel: error: ") == (code == 1)
