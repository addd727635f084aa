import hashlib
import random
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from seqaccel import (
    AtIndex,
    GConvention,
    Kind,
    Method,
    NumStream,
    TransformSpec,
    Undefined,
    UndefinedReason,
    accelerate_sequence,
    aitken,
    e_algorithm,
    forward_difference,
    from_function,
    from_values,
    g_algorithm,
    iota,
    is_defined,
    leibniz_pi4_terms,
    levin,
    partial_sums,
    take,
)
from seqaccel import transforms
import oracles
from conftest import (
    assert_stream_equals,
    ealg_oracle,
    nondegenerate_stream_values,
    random_stream_values,
    stream_cells,
)

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"
KINDS = [Kind.T, Kind.U, Kind.V]
CONVENTIONS = [GConvention.TEXT, GConvention.CODE]

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
rational_lists = st.lists(small_rationals, min_size=4, max_size=9)


def kind_code(kind: Kind) -> str:
    return kind.value


DZ = Undefined(UndefinedReason.DIV_BY_ZERO)
ZZ = Undefined(UndefinedReason.INDETERMINATE_ZERO_OVER_ZERO)
OOR = Undefined(UndefinedReason.OUT_OF_RANGE)


def P(u: Undefined) -> Undefined:
    return Undefined(UndefinedReason.PROPAGATED_FROM_INPUT, u.cause)


def remainder_estimate(kind: Kind, s: NumStream) -> NumStream:
    """The R stream the transforms read over s: Δs, or one stream over Δs."""
    return transforms._remainder(kind, s, forward_difference(s))


# Streams that mix undefined causes.
MIXED_CAUSES = {
    "a": [1, 2, DZ, 4, 4, 4, 7, OOR, 9, 10, ZZ, 12],
    "b": [0, 1, 0, 1, 2, 3, 5, 5, 8, ZZ, OOR, 13, 1, 1],
    "c": [OOR, DZ, 1, ZZ, OOR, 2, 3, 3, DZ, 4, 6, 7, 9],
}
# Every cell of remainder_estimate on the MIXED_CAUSES streams (all of
# them) and on an infinite stream (its first ten), with its length.
REMAINDER_CELLS_WITH_CAUSES = [
    ("a", Kind.T, 11, [1, P(DZ), P(DZ), 0, 0, 3, P(OOR), P(OOR), 1, P(ZZ), P(ZZ)]),
    ("a", Kind.U, 11, [1, P(DZ), P(DZ), 0, 0, 18, P(OOR), P(OOR), 9, P(ZZ), P(ZZ)]),
    ("a", Kind.V, 10, [P(DZ), P(DZ), P(DZ), ZZ, 0, P(OOR), P(OOR), P(OOR), P(ZZ), P(ZZ)]),
    ("b", Kind.T, 13, [1, -1, 1, 1, 1, 2, 0, 3, P(ZZ), P(OOR), P(OOR), -12, 0]),
    ("b", Kind.U, 13, [1, -2, 3, 4, 5, 12, 0, 24, P(ZZ), P(OOR), P(OOR), -144, 0]),
    ("b", Kind.V, 12, [F(1, 2), F(-1, 2), DZ, DZ, 2, 0, 0, P(ZZ), P(OOR), P(OOR), P(OOR), 0]),
    ("c", Kind.T, 12, [P(DZ), P(DZ), P(ZZ), P(OOR), P(OOR), 1, 0, P(DZ), P(DZ), 2, 1, 2]),
    ("c", Kind.U, 12, [P(DZ), P(DZ), P(ZZ), P(OOR), P(OOR), 6, 0, P(DZ), P(DZ), 20, 11, 24]),
    ("c", Kind.V, 11, [P(DZ), P(ZZ), P(OOR), P(OOR), P(OOR), 0, P(DZ), P(DZ), P(DZ), -2, 2]),
    ("inf", Kind.T, None,
     [F(1, 2), F(5, 6), F(8, 3), F(-7, 2), F(-1, 2), 1, 1, F(-2, 3), F(-1, 3), -1]),
    ("inf", Kind.U, None, [F(1, 2), F(5, 3), 8, -14, F(-5, 2), 6, 7, F(-16, 3), -3, -10]),
    ("inf", Kind.V, None,
     [F(5, 4), F(40, 33), F(56, 37), F(7, 12), F(-1, 3), DZ, F(2, 5), F(2, 3), F(-1, 2), F(-1, 4)]),
]


class TestRemainderEstimate:
    def test_kind_t_is_forward_difference(self):
        out = remainder_estimate(Kind.T, from_values([1, 0, 1, 0]))
        assert_stream_equals(out, [-1, 1, -1])

    def test_kind_u_scales_by_position(self):
        out = remainder_estimate(Kind.U, from_values([1, 2, 4, 8]))
        assert_stream_equals(out, [1, 4, 12])

    def test_kind_v_ratio_of_differences(self):
        out = remainder_estimate(Kind.V, from_values([0, 1, 3, 6, 10]))
        assert_stream_equals(out, [2, 6, 12])

    def test_kind_v_flags_zero_second_difference(self):
        out = remainder_estimate(Kind.V, from_values([0, 1, 2, 4]))
        assert isinstance(out.at(0), Undefined)

    @given(values=rational_lists)
    def test_matches_oracle(self, values):
        for kind in KINDS:
            got = stream_cells(remainder_estimate(kind, from_values(values)), len(values))
            want = oracles.remainder_list(kind_code(kind), values)
            assert got[: len(want)] == want

    @pytest.mark.parametrize(
        "name,kind,length,want", REMAINDER_CELLS_WITH_CAUSES,
        ids=[f"{name}-{kind.value}" for name, kind, _, _ in REMAINDER_CELLS_WITH_CAUSES],
    )
    def test_cells_reasons_causes_and_length(self, name, kind, length, want):
        if name == "inf":
            fn, source_length = (lambda i: F(i * i % 5, i % 3 + 1)), None
        else:
            fn, source_length = from_values(MIXED_CAUSES[name]).at, len(MIXED_CAUSES[name])
        r = remainder_estimate(kind, NumStream(fn, source_length))
        assert r.length == length
        assert [r.at(i) for i in range(len(want))] == want
        # Cell i forces s[i], s[i+1] (and s[i+2] for kind v); none past the end.
        width = 3 if kind is Kind.V else 2
        for i in range(len(want) + 2):
            forced = set()
            fresh = NumStream(lambda x: forced.add(x) or fn(x), source_length)
            remainder_estimate(kind, fresh).at(i)
            assert forced == (set() if length is not None and i >= length
                              else set(range(i, i + width))), i


class TestGInitial:
    """Order-0 weights: g_algorithm(kind, 0, j, ·)."""

    def test_column_one_text_equals_remainder(self):
        s = from_values([5, 3, 9, 1, 7])
        for kind in KINDS:
            got = g_algorithm(kind, 0, 1, s, GConvention.TEXT)
            want = remainder_estimate(kind, s)
            assert got.to_list() == want.to_list()

    def test_column_one_code_is_reciprocal_remainder(self):
        s = from_values([5, 3, 9, 1, 7])
        for kind in KINDS:
            got = g_algorithm(kind, 0, 1, s, GConvention.CODE)
            r = remainder_estimate(kind, s)
            assert got.length == r.length
            for i in range(got.length):
                assert got.at(i) == 1 / r.at(i)

    def test_text_divides_by_position_power(self):
        values = [0, 1, 3, 7]  # differences 1, 2, 4
        out = g_algorithm(Kind.T, 0, 2, from_values(values), GConvention.TEXT)
        assert_stream_equals(out, [F(1), F(1), F(4, 3)])
        assert_stream_equals(out, oracles.g0_list("t", 2, values, "text"))

    def test_code_divides_position_power_by_remainder(self):
        values = [0, 1, 3, 7]
        out = g_algorithm(Kind.T, 0, 2, from_values(values), GConvention.CODE)
        assert_stream_equals(out, [F(1), F(1), F(3, 4)])
        assert_stream_equals(out, oracles.g0_list("t", 2, values, "code"))

    def test_code_flags_zero_remainder(self):
        values = [1, 1, 2, 3]
        out = g_algorithm(Kind.T, 0, 2, from_values(values), GConvention.CODE)
        assert out.at(0) == Undefined(UndefinedReason.DIV_BY_ZERO)
        assert_stream_equals(out, oracles.g0_list("t", 2, values, "code"))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^order must be >= 0, got -1$"):
            g_algorithm(Kind.T, -1, 1, from_values([1, 2]), GConvention.TEXT)

    def test_column_below_one_rejected(self):
        for k in (0, 1, 2):
            with pytest.raises(ValueError, match="^weight column j must be >= 1, got 0$"):
                g_algorithm(Kind.T, k, 0, from_values([1, 2]), GConvention.TEXT)


class TestEAlgorithm:
    def test_order_zero_is_identity(self):
        s = from_values([3, 1, 4, 1, 5])
        for kind in KINDS:
            out = e_algorithm(kind, 0, s)
            assert out.to_list() == s.to_list()

    def test_g_order_zero_is_initial_weights(self):
        values = [3, 1, 4, 1, 5]
        for conv in CONVENTIONS:
            for j in (1, 2, 3):
                got = g_algorithm(Kind.U, 0, j, from_values(values), conv)
                assert_stream_equals(got, oracles.g0_list("u", j, values, conv.value))

    def test_exact_on_geometric_error_model(self):
        s = from_function(lambda i: 1 + F(1, 2) ** i)
        out = e_algorithm(Kind.T, 1, s)
        for i in range(8):
            assert out.at(i) == F(1)

    def test_alternating_zero_one_collapses_to_half(self):
        out = e_algorithm(Kind.T, 1, from_values([1, 0, 1, 0, 1]))
        assert_stream_equals(out, [F(1, 2), F(1, 2), F(1, 2)])

    def test_short_circuit_preserves_constant_streams(self):
        const = iota(F(1, 2), 0)
        for k in (1, 2, 3):
            out = e_algorithm(Kind.U, k, const)
            for i in range(5):
                assert out.at(i) == F(1, 2)

    def test_second_order_keeps_already_constant_first_order(self):
        # First order already collapses this stream; the next order must
        # hold the value instead of dividing 0 by 0.
        sums = from_values([1, 0, 1, 0, 1, 0, 1, 0])
        e1 = e_algorithm(Kind.T, 1, sums)
        assert all(e1.at(i) == F(1, 2) for i in range(e1.length))
        e2 = e_algorithm(Kind.T, 2, sums)
        assert all(e2.at(i) == F(1, 2) for i in range(e2.length))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^order must be >= 0, got -1$"):
            e_algorithm(Kind.T, -1, from_values([1, 2]))

    def test_matches_memoization_free_oracle(self):
        rng = random.Random(1105)
        for _ in range(60):
            values = random_stream_values(rng, rng.randint(1, 8), span=6)
            s = from_values(values)
            kind = rng.choice(KINDS)
            conv = rng.choice(CONVENTIONS)
            k = rng.randint(0, 3)
            want = oracles.ealg_list(kind_code(kind), k, values, conv.value)
            got = stream_cells(e_algorithm(kind, k, s, conv), len(want))
            assert got == want, (values, kind, conv, k)
            j = rng.randint(1, 3)
            want_g = oracles.galg_list(kind_code(kind), k, j, values, conv.value)
            got_g = stream_cells(g_algorithm(kind, k, j, s, conv), len(want_g))
            assert got_g == want_g, (values, kind, conv, k, j)

    @pytest.mark.parametrize("kind", KINDS, ids=kind_code)
    def test_cell_forces_its_whole_window(self, kind):
        # Cell i of order k >= 1 reads s[i..i+k+1] (t, u) or s[i..i+k+2]
        # (v), also where the short-circuit rule leaves a pivot unused.
        extra = 3 if kind is Kind.V else 2
        for source in (from_function(lambda i: F(1, i * i + 3)), iota(F(1, 2), 0)):
            for k in range(1, 6):
                for i in (0, 3):
                    spec = TransformSpec(Method.EALG, kind, k)
                    report = accelerate_sequence(spec, source, mode=AtIndex(i))
                    assert report.terms_used == i + k + extra, (source, k, i)

    def test_stack_depth_does_not_grow_with_order(self):
        # A cell fills the table in loops, so its depth does not depend on k.
        out = e_algorithm(Kind.T, 20, from_function(lambda i: F(1, i * i + 3)))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            cell = out.at(0)
        finally:
            sys.setrecursionlimit(limit)
        assert is_defined(cell)

    def test_stream_count_does_not_grow_with_order(self, monkeypatch):
        built = []
        init = NumStream.__init__

        def counting_init(stream, *args, **kwargs):
            built.append(stream)
            init(stream, *args, **kwargs)

        counts = []
        for k in (4, 8, 16):
            s = from_function(lambda i: F(1, i * i + 3))
            with monkeypatch.context() as m:
                m.setattr(NumStream, "__init__", counting_init)
                e_algorithm(Kind.V, k, s).at(0)
            counts.append(len(built))
            built.clear()
        assert counts[0] == counts[1] == counts[2]

    def test_undefined_reason_and_cause(self):
        # Pinned cells, each Undefined with its exact reason and cause; see
        # the header of the data file for the format.
        tokens = {"DZ": DZ, "ZZ": ZZ, "OOR": OOR}

        def cell(token: str):
            if token.startswith("P("):
                return P(tokens[token[2:-1]])
            return tokens[token] if token in tokens else F(token)

        # Each line is also the list oracles' (`ealg_oracle`): the recursion
        # where it is defined, the determinant ratio where only a pivot vanishes.
        lines = Path(__file__).with_name("ealg_cells_with_causes.txt").read_text().splitlines()
        checked, tally = 0, Counter()
        for line in lines:
            if line.startswith("#"):
                continue
            head, cells = line.split(":")
            family, name, kind, conv, k = head.split()
            kind, conv, k = Kind(kind), GConvention(conv), int(k)
            s = from_values(MIXED_CAUSES[name])
            out = (e_algorithm(kind, k, s, conv) if family == "e"
                   else g_algorithm(kind, k, k + 1, s, conv))
            want = [cell(c) for c in cells.split()]
            assert out.to_list() == want, line
            plain = [None if isinstance(v, Undefined) else F(v) for v in MIXED_CAUSES[name]]
            j = None if family == "e" else k + 1
            assert [None if isinstance(c, Undefined) else c for c in want] == ealg_oracle(
                kind.value, k, plain, conv.value, j, tally), line
            checked += 1
        assert checked == 2 * 3 * 3 * 2 * 5
        assert tally["recursion"] > 0 and tally["ratio"] > 0, tally

    def test_high_orders_match_oracle_on_both_paths(self, monkeypatch):
        # Values from a span of 2 repeat often, so pivots vanish on fully
        # defined rows, at level 1 and higher up. Cells with a zero R or a
        # zero denominator take the table, whose rows come from `_eliminate`
        # alone, zero pivots included; cells where only a pivot vanishes are
        # the determinant ratio.
        served, calls = _count_paths(monkeypatch), Counter()
        eliminate = transforms._eliminate

        def counted(a, b):
            calls["zero pivot"] += is_defined(a[1]) and is_defined(b[1]) and a[1] == b[1]
            return eliminate(a, b)

        monkeypatch.setattr(transforms, "_eliminate", counted)
        rng = random.Random(3)
        above_level_one, tally = 0, Counter()
        for _ in range(16):
            values = random_stream_values(rng, rng.randint(9, 13), span=2)
            s = from_values(values)
            kind, conv, k = rng.choice(KINDS), rng.choice(CONVENTIONS), rng.randint(6, 10)
            zero_pivots = calls["zero pivot"]
            want = ealg_oracle(kind_code(kind), k, values, conv.value, tally=tally)
            assert stream_cells(e_algorithm(kind, k, s, conv), len(want)) == want
            if kind is not Kind.V and conv is GConvention.TEXT and calls["zero pivot"] > zero_pivots:
                # Level 0 is fully defined here, and order 1 meets the same
                # level-1 pivots: if it meets no zero pivot, order k met one
                # at level 2 or above.
                zero_pivots = calls["zero pivot"]
                e_algorithm(kind, 1, s, conv).to_list()
                above_level_one += calls["zero pivot"] == zero_pivots
            j = rng.randint(1, k + 1)
            want = ealg_oracle(kind_code(kind), k, values, conv.value, j, tally)
            assert stream_cells(g_algorithm(kind, k, j, s, conv), len(want)) == want
        assert served["closed"] > 0 and served["table"] > 0, served
        assert calls["zero pivot"] > 0, calls
        assert above_level_one > 0
        assert tally["recursion"] > 0 and tally["ratio"] > 0, tally


def _count_paths(monkeypatch) -> Counter:
    """Count the cells `_closed_form` serves and the ones it leaves to the table."""
    served = Counter()
    closed_form = transforms._closed_form

    def counted(*args):
        value = closed_form(*args)
        served["closed" if value is not None else "table"] += 1
        return value

    monkeypatch.setattr(transforms, "_closed_form", counted)
    return served


class _CountedReads(NumStream):
    """A view of a stream that counts every `at` call by index."""

    __slots__ = ("reads",)

    def __init__(self, stream: NumStream):
        super().__init__(stream.at, stream.length)
        self.reads = Counter()

    def at(self, i: int):
        self.reads[i] += 1
        return super().at(i)


class TestClosedForm:
    """A cell whose ratio is defined takes one weighted sum; the rest take the table."""

    UNDEFINED = [DZ, ZZ, OOR, P(DZ), P(ZZ), P(OOR)]

    def test_matches_oracle_and_table_on_degenerate_streams(self, monkeypatch):
        # Small spans give zeros, repeats and zero pivots; undefined cells of
        # every reason and cause are mixed in. Each cell is read on a fresh
        # pipeline, once as it is and once with the table alone. The two
        # force the same input cells and agree on the length; they agree on
        # value, reason and cause too, except where the table alone meets a
        # zero pivot and the ratio (`oracles.ealg_ratio_list`) is defined.
        served, cells = _count_paths(monkeypatch), Counter()
        rng = random.Random(1010)
        for _ in range(80):
            k = rng.randint(1, 9)
            values = random_stream_values(rng, rng.randint(k + 1, k + 6), rng.choice([1, 2, 3, 9]))
            for x in rng.sample(range(len(values)), rng.choice([0, 0, 1, 2])):
                values[x] = rng.choice(self.UNDEFINED)
            kind, conv, j = rng.choice(KINDS), rng.choice(CONVENTIONS), rng.randint(1, k + 2)
            plain = [None if isinstance(v, Undefined) else v for v in values]

            def read(build, i: int, table_only: bool):
                forced = []
                out = build(NumStream(lambda x: forced.append(x) or values[x], len(values)))
                with monkeypatch.context() as m:
                    if table_only:
                        m.setattr(transforms, "_closed_form", lambda *args: None)
                    return out.length, out.at(i), forced

            for build, column in ((lambda s: e_algorithm(kind, k, s, conv), None),
                                  (lambda s: g_algorithm(kind, k, j, s, conv), j)):
                ratio = oracles.ealg_ratio_list(kind_code(kind), k, plain, conv.value, column)
                for i in range(len(values) - k + 1):
                    (n, got, forced), (table_n, table, table_forced) = (
                        read(build, i, False), read(build, i, True))
                    assert (n, forced) == (table_n, table_forced), (values, kind, conv, k, j, i)
                    if is_defined(table) or i >= len(ratio) or ratio[i] is None:
                        assert got == table, (values, kind, conv, k, j, i)
                        cells["table" if is_defined(table) else "undefined"] += 1
                    else:
                        assert got == ratio[i], (values, kind, conv, k, j, i)
                        cells["ratio"] += 1
            want = ealg_oracle(kind_code(kind), k, plain, conv.value, tally=cells)
            assert stream_cells(e_algorithm(kind, k, from_values(values), conv), len(want)) == want
            want = ealg_oracle(kind_code(kind), k, plain, conv.value, j, cells)
            got = stream_cells(g_algorithm(kind, k, j, from_values(values), conv), len(want))
            assert got == want, (values, kind, conv, k, j)
        assert served["closed"] > 100 and served["table"] > 100, served
        assert cells["recursion"] > 0 and cells["ratio"] > 0, cells

    def test_nondegenerate_cell_skips_the_table(self, monkeypatch):
        calls = Counter()
        eliminate = transforms._eliminate

        def counted(*args):
            calls["_eliminate"] += 1
            return eliminate(*args)

        monkeypatch.setattr(transforms, "_eliminate", counted)
        values = [F(1, i * i + 3) for i in range(64)]
        k, cell = 60, e_algorithm(Kind.V, 60, from_values(values)).at(0)
        assert not calls
        # Δᵏ[n^(k-1)·s/R] / Δᵏ[n^(k-1)/R] at 0, with n = x + 1, in Fractions.
        r = remainder_estimate(Kind.V, from_values(values))
        num = den = F(0)
        for j in range(k + 1):
            w = (-1) ** (k - j) * comb(k, j) * F(j + 1) ** (k - 1) / r.at(j)
            num, den = num + w * values[j], den + w
        assert cell == num / den

    def test_table_cell_reads_its_window_once(self, monkeypatch):
        # A cell that takes the table builds its level-0 rows from the window
        # it already read: one `at` per cell of s, one R (`_remainder`) per
        # cell, and for `g_algorithm` one g(0, j) per cell. Δs comes from a
        # copy of the input, so the s counts hold only the table's own reads.
        served = _count_paths(monkeypatch)
        tops, remainders = Counter(), Counter()
        weight, remainder = transforms._weight, transforms._remainder

        def counted_weight(c, x, *rest):
            tops[c, x] += 1
            return weight(c, x, *rest)

        def counted_remainder(kind, s, d):
            r = remainder(kind, s, d)
            return NumStream(lambda x: remainders.update([x]) or r.at(x), r.length)

        monkeypatch.setattr(transforms, "_weight", counted_weight)
        monkeypatch.setattr(transforms, "_remainder", counted_remainder)
        base = [F(1, x * x + 3) for x in range(12)]
        zero_r = base[:2] + base[1:11]
        undefined = base[:1] + [DZ] + base[2:]
        zero_pivot = [F(x) for x in range(12)]  # kind t: R is constant, so the denominator is 0
        cases = [(v, kind) for v in (zero_r, undefined) for kind in KINDS]
        for values, kind in cases + [(zero_pivot, Kind.T)]:
            for conv, k in [(conv, k) for conv in CONVENTIONS for k in (1, 3, 8)]:
                window = {x: 1 for x in range(k + 1)}
                s = _CountedReads(from_values(values))
                tops.clear()
                remainders.clear()
                with monkeypatch.context() as m:
                    m.setattr(transforms, "forward_difference",
                              lambda _: forward_difference(from_values(values)))
                    e_algorithm(kind, k, s, conv).at(0)
                    assert (s.reads, remainders) == (window, window), (values, kind, conv, k)
                    remainders.clear()
                    g_algorithm(kind, k, k + 1, s, conv).at(0)
                assert remainders == window and Counter(
                    {x: n for (c, x), n in tops.items() if c == k + 1}) == window
        assert served == {"table": 2 * 7 * 2 * 3}, served


class TestDeltaRoute:
    """Weights from the Δs window; a degenerate window takes Levin's zero-R rule or the table."""

    UNDEFINED = [DZ, ZZ, OOR, P(DZ), P(ZZ), P(OOR)]
    # sha256 of every cell read below, as repr((length, repr(cell), input cells
    # forced in order)); recorded while the transforms still had a weight route
    # through R's reciprocals.
    DIGEST = "bf0bebda321df83df9d853bb4735d17d8c3aee166f99e5dee49d94a775e0f85e"

    def test_every_cell_matches_the_oracles(self, monkeypatch):
        # Small spans give zeros, repeats, equal Δs neighbours and zero
        # denominators; undefined cells of every reason and cause are mixed
        # in. Each cell is read on a fresh pipeline and equals the list
        # oracle's (None for undefined); the digest pins its value, reason,
        # cause, length and the input cells it forced, in order.
        weights, kernel = transforms._delta_weights, transforms._weighted_ratio
        routes, from_delta = Counter(), False

        def counted_weights(*args):
            nonlocal from_delta
            ws = weights(*args)
            routes["Δs" if ws else "degenerate"] += 1
            from_delta = bool(ws)
            return ws

        def counted_kernel(*args):
            value = kernel(*args)
            routes["Δs, zero denominator"] += from_delta and not is_defined(value)
            return value

        plain_galg, memo = oracles.galg_list, {}

        def galg_list(kind, k, j, s, convention):  # once per argument: s is one draw's
            if (kind, k, j, convention) not in memo:
                memo[kind, k, j, convention] = plain_galg(kind, k, j, s, convention)
            return memo[kind, k, j, convention]

        monkeypatch.setattr(oracles, "galg_list", galg_list)
        monkeypatch.setattr(transforms, "_delta_weights", counted_weights)
        monkeypatch.setattr(transforms, "_weighted_ratio", counted_kernel)
        digest, rng = hashlib.sha256(), random.Random(2032)
        for _ in range(120):
            memo.clear()
            k = rng.randint(1, 12)
            values = random_stream_values(rng, rng.randint(k + 1, k + 7), rng.choice([1, 3, 9, 9]))
            if rng.random() < 0.3:  # an arithmetic run: kind t's ratio has a zero denominator
                values[:k + 3] = [F(x, 2) for x in range(k + 3)]
            for x in rng.sample(range(len(values)), rng.choice([0, 0, 1, 2])):
                values[x] = rng.choice(self.UNDEFINED)
            kind, j = rng.choice(KINDS), rng.randint(1, k + 2)
            plain, code = [None if isinstance(v, Undefined) else v for v in values], kind_code(kind)
            cases = [(lambda s: levin(kind, k, s), oracles.levin1_list(code, plain) if k == 1
                      else oracles.levin_product_list(code, k, plain))] + [
                case for conv in CONVENTIONS
                for case in ((lambda s, conv=conv: e_algorithm(kind, k, s, conv),
                              ealg_oracle(code, k, plain, conv.value)),
                             (lambda s, conv=conv: g_algorithm(kind, k, j, s, conv),
                              ealg_oracle(code, k, plain, conv.value, j)))]
            for build, want in cases:
                for i in range(len(values) - k + 1):
                    forced = []
                    out = build(NumStream(lambda x: forced.append(x) or values[x], len(values)))
                    cell = out.at(i)
                    got = cell if is_defined(cell) else None
                    assert got == (want[i] if i < len(want) else None), (values, kind, k, j, i)
                    digest.update(repr((out.length, repr(cell), forced)).encode())
        assert digest.hexdigest() == self.DIGEST
        assert all(routes[r] > 50 for r in ("Δs", "degenerate", "Δs, zero denominator")), routes

    @pytest.mark.parametrize("kind", KINDS, ids=kind_code)
    def test_int_cells_give_the_cells_of_their_fractions(self, kind):
        # `from_function` makes each int an Element, as `from_values` does.
        ints = [(-1) ** i * (i * i + 3) + 2 * i for i in range(14)]
        for build in (lambda s: levin(kind, 3, s), lambda s: e_algorithm(kind, 3, s),
                      lambda s: e_algorithm(kind, 3, s, GConvention.CODE)):
            want = build(from_values(ints)).to_list()
            assert build(from_function(ints.__getitem__, len(ints))).to_list() == want

    @pytest.mark.parametrize("k", [24, 40])
    @pytest.mark.parametrize("kind", [Kind.U, Kind.V], ids=kind_code)
    def test_high_orders_match_the_list_oracles(self, monkeypatch, kind, k):
        # Leibniz partial sums, whose Δs numerators are all ±1, and a model
        # sequence whose Δs numerators are not; every cell is defined.
        plain, memo = oracles.galg_list, {}

        def galg_list(*args):  # the oracle's recursion, evaluated once per argument
            key = repr(args)
            if key not in memo:
                memo[key] = plain(*args)
            return memo[key]

        monkeypatch.setattr(oracles, "galg_list", galg_list)
        sums = take(partial_sums(leibniz_pi4_terms()), k + 6).to_list()
        model = [F(1, 3) + (-1) ** i * (F(5, i + 1) + F(7, (i + 1) ** 2)) for i in range(k + 6)]
        for values in (sums, model):
            want = oracles.levin_list(kind_code(kind), k, values)
            assert levin(kind, k, from_values(values)).to_list() == want and None not in want
            for conv in CONVENTIONS:
                memo.clear()
                want = oracles.ealg_list(kind_code(kind), k, values, conv.value)
                got = e_algorithm(kind, k, from_values(values), conv).to_list()
                assert got == want and None not in want, conv


def _window_cases():
    """(name, k, build, oracle, ratio_kind) per transform, kind, convention and order 0-12.

    `oracle(values, tally)` gives the cells. `ratio_kind` is the kind of
    an E-algorithm case of order k >= 2, where a vanishing pivot can leave
    the ratio defined, and None for the others.
    """
    for k in range(13):
        for kind in KINDS:
            code = kind_code(kind)
            levin_oracle = (
                (lambda v, _: v) if k == 0 else
                (lambda v, _, code=code: oracles.levin1_list(code, v)) if k == 1 else
                (lambda v, _, code=code, k=k: oracles.levin_product_list(code, k, v)))
            yield (f"levin-{code}{k}", k, lambda s, kind=kind, k=k: levin(kind, k, s),
                   levin_oracle, None)
            ratio_kind = kind if k >= 2 else None
            for conv in CONVENTIONS:
                yield (f"ealg-{code}{k}-{conv.value}", k,
                       lambda s, kind=kind, k=k, conv=conv: e_algorithm(kind, k, s, conv),
                       lambda v, tally, code=code, k=k, conv=conv:
                       ealg_oracle(code, k, v, conv.value, tally=tally), ratio_kind)
                j = k % 3 + 1
                yield (f"galg-{code}{k}-{conv.value}-j{j}", k,
                       lambda s, kind=kind, k=k, j=j, conv=conv: g_algorithm(kind, k, j, s, conv),
                       lambda v, tally, code=code, k=k, j=j, conv=conv:
                       ealg_oracle(code, k, v, conv.value, j, tally), ratio_kind)


def _zero_pivot_values(rng: random.Random, kind: Kind, n: int) -> list[Fraction]:
    """n random values whose R has no zero, with R[0] = R[1]: a level-1 pivot of cell 0 is 0."""
    while True:
        values = random_stream_values(rng, n, 9)
        a, b = values[1] - values[0], values[2] - values[1]
        if kind is Kind.T:
            values[2] = values[1] + a
        elif kind is Kind.U:
            values[2] = values[1] + a / 2
        elif 2 * a != b:  # kind v: R[0] = ab/(b - a) = bc/(c - b) for the next Δs c
            values[3] = values[2] + a * b / (2 * a - b)
        r = oracles.remainder_list(kind_code(kind), values)
        if r[0] == r[1] and all(r):
            return values


def _read_orders(rng: random.Random, n: int) -> dict[str, list[int]]:
    shuffled = rng.sample(range(n), n)
    stride = rng.randint(2, 4)
    return {"ascending": list(range(n)), "descending": list(range(n))[::-1],
            "random": shuffled, "strided": [x for o in range(stride) for x in range(o, n, stride)]}


class TestSlidingWindow:
    """Every read order of a transform stream, and every reader, gives a fresh stream's cells."""

    UNDEFINED = [DZ, ZZ, OOR, P(DZ), P(ZZ), P(OOR)]

    @pytest.mark.parametrize("name,k,build,oracle,ratio_kind", list(_window_cases()),
                             ids=[case[0] for case in _window_cases()])
    def test_any_read_order_gives_fresh_cells(self, monkeypatch, name, k, build, oracle,
                                              ratio_kind):
        # Small spans give zeros and repeats; every reason of Undefined is
        # mixed in, and for the E-algorithm from order 2 one more stream has
        # a zero pivot at level 1. Each cell of a fresh stream is read alone,
        # then every cell of one stream in each order; both match the list
        # oracle, which has cells of the recursion and (`ratio_kind`) of the ratio.
        plain, memo = oracles.galg_list, {}

        def galg_list(*args):  # the oracle's recursion, evaluated once per argument
            key = repr(args)
            if key not in memo:
                memo[key] = plain(*args)
            return memo[key]

        monkeypatch.setattr(oracles, "galg_list", galg_list)
        rng = random.Random(name)
        tally = Counter()
        for span in (1, 3, 9) + ((None,) if ratio_kind else ()):
            if span is None:
                values = _zero_pivot_values(rng, ratio_kind, k + rng.randint(4, 10))
            else:
                values = random_stream_values(rng, k + rng.randint(3, 10), span)
                for x in rng.sample(range(len(values)), rng.choice([0, 1, 2])):
                    values[x] = rng.choice(self.UNDEFINED)
            n = build(from_values(values)).length
            fresh = [build(from_values(values)).at(i) for i in range(n)]
            want = oracle([None if isinstance(v, Undefined) else F(v) for v in values], tally)
            assert [None if isinstance(c, Undefined) else c for c in fresh] == want[:n], values
            for order, idx in _read_orders(rng, n).items():
                out = build(from_values(values))
                got = {i: out.at(i) for i in idx}
                assert [got[i] for i in range(n)] == fresh, (values, order)
                assert all(repr(got[i]) == repr(fresh[i]) for i in range(n))  # reason and cause
        if ratio_kind:
            assert tally["recursion"] > 0 and tally["ratio"] > 0, tally

    @pytest.mark.parametrize("k", [2, 5, 12])
    def test_concurrent_readers_in_every_order(self, k):
        rng = random.Random(k)
        values = random_stream_values(rng, 40, 3)
        values[7], values[23] = DZ, P(ZZ)
        for name, order, build, _, _ in _window_cases():
            if order != k:
                continue
            n = build(from_values(values)).length
            fresh = [repr(build(from_values(values)).at(i)) for i in range(n)]
            orders = list(_read_orders(rng, n).values())
            out = build(from_values(values))
            start, seen = threading.Barrier(8), {}

            def read(reader: int) -> None:
                start.wait(timeout=60)
                cells = {i: out.at(i) for i in orders[reader % 4]}
                seen[reader] = [repr(cells[i]) for i in range(n)]

            threads = [threading.Thread(target=read, args=(r,)) for r in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert sorted(seen) == list(range(8)) and all(c == fresh for c in seen.values()), name

    @pytest.mark.parametrize("k", [2, 3, 12])
    def test_reads_per_cell_along_a_stream(self, monkeypatch, k):
        # Reading all 300 cells in order computes every cell of s and Δs
        # exactly once and no cell of R: each window comes from the streams'
        # own caches, there is one Δs per transform, and no window of these
        # partial sums is degenerate, so every weight comes from Δs alone.
        # Kind t's R is the Δs stream itself, so each Δs cell counts as R too.
        values = take(partial_sums(leibniz_pi4_terms()), 300 + k + 2).to_list()
        computed = Counter()

        def counted(name: str, stream: NumStream) -> NumStream:
            compute = stream._compute
            stream._compute = lambda x: computed.update([(name, x)]) or compute(x)
            return stream

        remainder = transforms._remainder
        monkeypatch.setattr(transforms, "forward_difference",
                            lambda s: counted("Δs", forward_difference(s)))
        monkeypatch.setattr(transforms, "_remainder",
                            lambda kind, s, d: counted("R", remainder(kind, s, d)))
        for kind in KINDS:
            for build in (lambda s: levin(kind, k, s),
                          lambda s: e_algorithm(kind, k, s, GConvention.TEXT),
                          lambda s: e_algorithm(kind, k, s, GConvention.CODE)):
                computed.clear()
                out = build(counted("s", NumStream(values.__getitem__, len(values))))
                assert out.length >= 300
                for i in range(300):
                    out.at(i)
                v = kind is Kind.V
                assert computed == Counter(
                    [("s", x) for x in range(301 + k + v)] + [("Δs", x) for x in range(300 + k + v)]
                    + [("R", x) for x in range(300 + k) if kind is Kind.T]), (kind, k)


class TestSharedTable:
    @pytest.mark.parametrize("conv", CONVENTIONS, ids=lambda c: c.value)
    @pytest.mark.parametrize("kind", KINDS, ids=kind_code)
    def test_concurrent_readers_agree_with_oracle(self, kind, conv):
        sums = take(partial_sums(leibniz_pi4_terms()), 60)
        want = oracles.ealg_list(
            kind_code(kind), 6,
            take(partial_sums(leibniz_pi4_terms()), 60).to_list(), conv.value)
        out = e_algorithm(kind, 6, sums, conv)
        assert out.length == len(want)
        start = threading.Barrier(8)
        seen = {}

        def read(reader: int) -> None:
            order = range(len(want))
            start.wait(timeout=60)
            cells = {i: out.at(i) for i in (order if reader % 2 else reversed(order))}
            seen[reader] = [None if isinstance(cells[i], Undefined) else cells[i]
                            for i in order]

        threads = [threading.Thread(target=read, args=(r,)) for r in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(seen) == list(range(8))
        for cells in seen.values():
            assert cells == want


def _inverse_powers(p: list, n) -> Fraction:
    """P(n) = Σ p[c]/n^c."""
    return sum(c / F(n) ** e for e, c in enumerate(p))


def _model_values(kind: Kind, s0: Fraction, count: int, remainder, start: int = 0,
                  s1: Fraction | None = None) -> list:
    """s with R[x] = remainder(x, s[x]) for x >= start, under kind's R.

    s[start] = s0, and the cells before it repeat s0. Kinds t and u step
    Δs[x] = R or R/(x + 1). Kind v starts from s[start + 1] = s1 and solves
    R = Δs[x+1]·Δs[x] / (Δs[x+1] - Δs[x]) for Δs[x+1] = R·Δs[x] / (R - Δs[x]).
    """
    s = [s0] * (start + 1) + ([s1] if kind is Kind.V else [])
    while len(s) < count:
        x = len(s) - 1 - (kind is Kind.V)
        r = remainder(x, s[x])
        if kind is Kind.V:
            d = s[x + 1] - s[x]
            s.append(s[x + 1] + r * d / (r - d))
        else:
            s.append(s[x] + (r / (x + 1) if kind is Kind.U else r))
    return s


def _kernel_values(kind: Kind, limit: Fraction, s0: Fraction, p: list, count: int) -> list:
    """s - L = R·P(n) with n = x + 1: the E-algorithm's model under `text`, order len(p)."""
    return _model_values(kind, s0, count, lambda x, sx: (sx - limit) / _inverse_powers(p, x + 1))


def _fits_window(kind: Kind, k: int, values: list, conv: GConvention, i: int, cell, j=None) -> bool:
    """Whether t - cell lies in the span of g(0, 1..k) over x = i..i+k, by exact rank.

    t is s, or g(0, j): then cell is one E that solves the window's system
    t[x] = E + Σ a_c·g(0, c)[x], singular or not.
    """
    xs = range(i, i + k + 1)
    g = [oracles.g0_list(kind_code(kind), c, values, conv.value) for c in range(1, k + 1)]
    t = values if j is None else oracles.g0_list(kind_code(kind), j, values, conv.value)
    columns = [[col[x] for col in g] for x in xs]
    return oracles.rank([row + [t[x] - cell] for row, x in zip(columns, xs)]) == oracles.rank(columns)


_DIVISION_CAUSES = (UndefinedReason.DIV_BY_ZERO, UndefinedReason.INDETERMINATE_ZERO_OVER_ZERO)


def _assert_ealg_kernel_cells(kind: Kind, k: int, conv: GConvention, s: list, limit) -> None:
    """Order-k cells on a model sequence s of limit L.

    Where the determinant ratio is defined, e_algorithm is L and
    g_algorithm(k, j) is 0 for 1 <= j <= k. Where it is undefined, an
    undefined cell is a division by zero (div-by-zero or zero-over-zero),
    and a defined E-algorithm cell with a zero R is L. Where the system is
    singular with no zero R, the window fits more than one limit: a defined
    cell is the recursion's and is one of them.
    """
    r = oracles.remainder_list(kind_code(kind), s)
    recursion = oracles.ealg_list(kind_code(kind), k, s, conv.value)
    for j in (None, *range(1, k + 1)):
        want = limit if j is None else 0
        ratio = oracles.ealg_ratio_list(kind_code(kind), k, s, conv.value, j)
        out = (e_algorithm(kind, k, from_values(s), conv) if j is None
               else g_algorithm(kind, k, j, from_values(s), conv))
        for i, cell in enumerate(out.to_list()):
            zero_r = 0 in r[i:i + k + 1]
            if ratio[i] is not None:
                assert cell == want, (i, j, s)
            elif not is_defined(cell):  # a zero R, or a singular system: a zero denominator
                assert cell.cause in _DIVISION_CAUSES, (i, j, cell, s)
            elif j is not None:
                assert zero_r or _fits_window(kind, k, s, conv, i, cell, j)
            elif zero_r:
                assert cell == limit, (i, s)
            else:
                assert cell == recursion[i] and _fits_window(kind, k, s, conv, i, cell), (i, s)


class TestKernelSequences:
    """Each transform gives L exactly on sequences of its own model.

    The property tests run with no deadline: the exact oracle solves of
    one example at k = 6 can take over 100 ms, so a slow machine would
    fail them on time alone.
    """

    def test_kind_u_order_two_is_exact_where_a_pivot_vanishes(self):
        # s - 7/3 = R·(3 - 5/n): the table alone meets a zero pivot at cells 2 and 3.
        s = _kernel_values(Kind.U, F(7, 3), F(1), [F(3), F(-5)], 12)
        assert s[1] == 1 + (1 - F(7, 3)) / -2  # s[x + 1] = s[x] + (s[x] - 7/3)/(3x - 2)
        out = e_algorithm(Kind.U, 2, from_values(s), GConvention.TEXT)
        assert out.to_list() == [F(7, 3)] * out.length

    @settings(deadline=None)
    @given(kind=st.sampled_from([Kind.T, Kind.U]), k=st.integers(1, 6), limit=small_rationals,
           s0=small_rationals, p=st.lists(small_rationals, min_size=6, max_size=6))
    def test_every_defined_cell_is_the_limit(self, kind, k, limit, s0, p):
        # `text`: s - L = R·P(n), P of degree k - 1 in 1/n with no root at
        # the n used. Kind u, k = 2 and P = 1 + b/n make s - L linear in n:
        # a singular system with no zero R.
        p = p[:k]
        assume(p[-1] != 0 and s0 != limit)
        assume(all(_inverse_powers(p, n) for n in range(1, k + 8)))
        s = _kernel_values(kind, limit, s0, p, k + 8)
        _assert_ealg_kernel_cells(kind, k, GConvention.TEXT, s, limit)

    @settings(deadline=None)
    @given(kind=st.sampled_from([Kind.T, Kind.U]), k=st.integers(1, 6), limit=small_rationals,
           s0=small_rationals, q=st.lists(small_rationals, min_size=6, max_size=6))
    def test_code_convention_every_defined_cell_is_the_limit(self, kind, k, limit, s0, q):
        # `code`: (s - L)·R = Q(n) with n = x + 1, Q of degree k - 1 with no
        # root at the n used; a draw whose s reaches L has a constant tail.
        # Each step about doubles the bit length of s, so the draws are short,
        # and k >= 5 draws two terms fewer to keep each example's solves small.
        q = q[:k]
        assume(q[-1] != 0 and s0 != limit)
        count = k + 5 - 2 * (k >= 5)
        assume(all(sum(c * n ** e for e, c in enumerate(q)) for n in range(1, count)))
        try:
            s = _model_values(kind, s0, count, lambda x, sx: sum(
                c * (x + 1) ** e for e, c in enumerate(q)) / (sx - limit))
        except ZeroDivisionError:
            assume(False)
        _assert_ealg_kernel_cells(kind, k, GConvention.CODE, s, limit)

    @settings(deadline=None)
    @given(kind=st.sampled_from([Kind.T, Kind.U]), k=st.integers(1, 6), limit=small_rationals,
           s0=small_rationals, p=st.lists(small_rationals, min_size=6, max_size=6))
    def test_levin_every_defined_cell_is_the_limit(self, kind, k, limit, s0, p):
        # s - L = R·P(1/n) with n = x, P of degree k - 1 in 1/n with no root
        # at the n used. For k >= 2 the model starts at x = 1, and cell 0 is
        # left out: its weight 0^(k-1) vanishes. A zero R is a cell where s
        # is L, so a lone one gives L too.
        p = p[:k]
        assume(p[-1] != 0 and s0 != limit)
        assume(all(_inverse_powers(p, n) for n in range(1, k + 8)))
        start = int(k >= 2)
        s = _model_values(kind, s0, k + 8, lambda x, sx: (sx - limit) / _inverse_powers(p, x),
                          start)
        ratio = oracles.levin_list(kind_code(kind), k, s)
        for i, cell in enumerate(levin(kind, k, from_values(s)).to_list()[start:], start):
            assert cell == limit if is_defined(cell) else ratio[i] is None, (i, s)

    @settings(deadline=None)
    @given(family=st.sampled_from(["text", "code", "levin"]), k=st.integers(1, 6),
           limit=small_rationals, s0=small_rationals, s1=small_rationals,
           p=st.lists(small_rationals, min_size=6, max_size=6))
    def test_kind_v_every_defined_cell_is_the_limit(self, family, k, limit, s0, s1, p):
        # Kind v on each family's model: `text` s - L = R·P(1/n) with
        # n = x + 1, `code` (s - L)·R = P(n) with n = x + 1, and Levin
        # s - L = R·P(1/n) with n = x, from x = 1 for k >= 2 (cell 0 left
        # out). The model's R fixes the next step from s0 != L and s1 != s0;
        # a zero step would make the tail constant, not a kernel sequence.
        # The oracles' exact solves grow fast with k and the bit length of s,
        # so k >= 5 draws two terms fewer to keep each example's solves small.
        p = p[:k]
        assume(p[-1] != 0 and s0 != limit and s1 != s0)
        start = int(family == "levin" and k >= 2)
        count = k + (6 if family == "code" else 7) - 2 * (k >= 5)
        if family == "code":
            assume(all(sum(c * n ** e for e, c in enumerate(p)) for n in range(1, count)))
            model = lambda x, sx: sum(c * (x + 1) ** e for e, c in enumerate(p)) / (sx - limit)
        else:
            n0 = int(family == "text")
            assume(all(_inverse_powers(p, n) for n in range(1, count + 1)))
            model = lambda x, sx: (sx - limit) / _inverse_powers(p, x + n0)
        try:
            s = _model_values(Kind.V, s0, count, model, start, s1)
        except ZeroDivisionError:
            assume(False)
        assume(all(b != a for a, b in zip(s[start:], s[start + 1:])))
        if family != "levin":
            _assert_ealg_kernel_cells(Kind.V, k, GConvention(family), s, limit)
            return
        ratio = oracles.levin_list("v", k, s)
        for i, cell in enumerate(levin(Kind.V, k, from_values(s)).to_list()[start:], start):
            assert cell == limit if is_defined(cell) else ratio[i] is None, (i, s)

    def test_singular_window_cell_is_one_limit_the_window_fits(self):
        # s = (x + 2)/2 is the kind-u `text` model of order 2 for L = 0 with
        # P(n) = 1 + 1/n, and it fits other limits: its system is singular
        # with no zero R, so the ratio is 0/0. The table's cell is 1/2.
        s = [F(x + 2, 2) for x in range(10)]
        kind, conv = Kind.U, GConvention.TEXT
        assert 0 not in oracles.remainder_list("u", s)
        assert oracles.ealg_ratio_list("u", 2, s, "text") == [None] * 7
        assert e_algorithm(kind, 2, from_values(s)).to_list() == [F(1, 2)] * 7
        assert g_algorithm(kind, 2, 2, from_values(s)).to_list() == [F(1, 2)] * 7
        for i in range(7):
            assert _fits_window(kind, 2, s, conv, i, F(1, 2)) and _fits_window(kind, 2, s, conv, i, 0)
            assert _fits_window(kind, 2, s, conv, i, F(1, 2), 2)
        _assert_ealg_kernel_cells(kind, 2, conv, s, 0)

    @pytest.mark.parametrize("conv", CONVENTIONS, ids=lambda c: c.value)
    @pytest.mark.parametrize("kind", [Kind.T, Kind.U], ids=kind_code)
    def test_undefined_cells_where_the_sequence_reaches_its_limit(self, kind, conv):
        # P = -1 takes s0 to L in one step, a `text` model of every order, and
        # R is 0 from there on. Under `code`, g(0, j) = n^(j-1)/R divides by
        # it: each undefined cell must be that division by zero.
        for k in range(1, 7):
            s = _kernel_values(kind, F(1, 2), F(3), [F(-1)], k + 8)
            assert s[1:] == [F(1, 2)] * (k + 7)
            _assert_ealg_kernel_cells(kind, k, conv, s, F(1, 2))

    def test_singular_window_cells_fit_the_window(self):
        # Small spans give singular windows with no zero R; each defined
        # cell there must solve the window's system.
        rng, checked = random.Random(5), Counter()
        for _ in range(300):
            k = rng.randint(1, 4)
            values = random_stream_values(rng, rng.randint(k + 3, k + 8), rng.choice([1, 2, 3]))
            kind, conv = rng.choice(KINDS), rng.choice(CONVENTIONS)
            r = oracles.remainder_list(kind_code(kind), values)
            for j in (None, *range(1, k + 2)):
                ratio = oracles.ealg_ratio_list(kind_code(kind), k, values, conv.value, j)
                t = values if j is None else oracles.g0_list(kind_code(kind), j, values, conv.value)
                out = (e_algorithm(kind, k, from_values(values), conv) if j is None
                       else g_algorithm(kind, k, j, from_values(values), conv))
                for i, cell in enumerate(out.to_list()):
                    defined_window = all(r[i:i + k + 1]) and None not in t[i:i + k + 1]
                    if ratio[i] is None and is_defined(cell) and defined_window:  # no zero R
                        assert _fits_window(kind, k, values, conv, i, cell, j), (values, k, j, i)
                        checked["e" if j is None else "g"] += 1
        assert checked["g"] > 10, checked


class TestAitken:
    def test_alternating_zero_one(self):
        assert_stream_equals(aitken(from_values([1, 0, 1, 0, 1])),
                             [F(1, 2), F(1, 2), F(1, 2)])

    def test_constant_stream_is_fixed_point(self):
        out = aitken(iota(F(2, 7), 0))
        for i in range(6):
            assert out.at(i) == F(2, 7)

    def test_zero_second_difference_is_undefined(self):
        out = aitken(from_values([0, 1, 2, 4]))
        assert isinstance(out.at(0), Undefined)
        assert out.at(0).reason is UndefinedReason.DIV_BY_ZERO

    @given(
        limit=small_rationals,
        scale=small_rationals.filter(lambda x: x != 0),
        ratio=small_rationals.filter(lambda x: x not in (0, 1)),
    )
    def test_exact_on_geometric_model(self, limit, scale, ratio):
        s = from_function(lambda i: limit + scale * ratio ** i)
        out = aitken(s)
        for i in range(6):
            cell = out.at(i)
            if not isinstance(cell, Undefined):
                assert cell == limit

    @given(values=rational_lists)
    def test_matches_oracle(self, values):
        got = stream_cells(aitken(from_values(values)), max(len(values) - 2, 0))
        assert got == oracles.aitken_list(values)


class TestLevin:
    def test_order_zero_is_identity(self):
        s = from_values([2, 7, 1, 8])
        for kind in KINDS:
            assert levin(kind, 0, s).to_list() == s.to_list()

    def test_order_one_kind_t_equals_aitken(self):
        rng = random.Random(2718)
        for _ in range(200):
            values = random_stream_values(rng, rng.randint(3, 9))
            got = levin(Kind.T, 1, from_values(values))
            want = aitken(from_values(values))
            n = min(got.length, want.length)
            assert stream_cells(got, n) == stream_cells(want, n)

    def test_alternating_zero_one(self):
        out = levin(Kind.T, 1, from_values([1, 0, 1, 0, 1]))
        assert_stream_equals(out, [F(1, 2), F(1, 2), F(1, 2)])

    def test_any_order_matches_difference_oracle(self):
        rng = random.Random(1973)
        for k in [*range(1, 7), 12, 24]:
            for _ in range(12):
                values = nondegenerate_stream_values(rng, rng.randint(k + 3, k + 6))
                for kind in KINDS:
                    want = oracles.levin_list(kind_code(kind), k, values)
                    got = levin(kind, k, from_values(values))
                    assert got.length == len(want)
                    assert stream_cells(got, len(want)) == want, (values, kind, k)

    @given(values=st.lists(st.integers(-2, 2), min_size=5, max_size=14))
    def test_zero_remainders_match_product_form(self, values):
        # Few distinct values put zeros in R: one zero R[i+j] leaves s[i+j]
        # (undefined where its weight is 0), two or more leave no summand.
        for k in (3, 4, 6):
            for kind in KINDS:
                want = oracles.levin_product_list(kind_code(kind), k, [F(v) for v in values])
                got = levin(kind, k, from_values(values))
                assert stream_cells(got, len(want)) == want, (values, kind, k)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^order must be >= 0, got -1$"):
            levin(Kind.T, -1, from_values([1, 2, 3]))

    @given(values=rational_lists)
    def test_order_one_matches_oracle(self, values):
        for kind in KINDS:
            want = oracles.levin1_list(kind_code(kind), values)
            got = stream_cells(levin(kind, 1, from_values(values)), len(want))
            assert got == want

    @given(values=rational_lists)
    def test_order_two_matches_oracle(self, values):
        for kind in KINDS:
            want = oracles.levin2_list(kind_code(kind), values)
            got = stream_cells(levin(kind, 2, from_values(values)), len(want))
            assert got == want


class TestLevinAgainstMpmath:
    """Second, independent Levin oracle: mpmath's recursive evaluation.

    mpmath's `levin` object evaluates L = Σ_m w_m S_m/ω_m ÷ Σ_m w_m/ω_m
    over the sums S_0..S_k it was given, with weights (θ + m)^(k-1); θ
    is its β. Our cell i has weights (i + j)^(k-1), so θ = i. The index
    offset: mpmath's remainders use the last term included, ω_n = a_n =
    s[n] - s[n-1], while ours use the first term left out, R[n] = Δs[n]
    = a_(n+1). So its core is fed our window s[i..i+k] with ω_m = R[i+m]
    directly. Its variant t takes that ω as given; its variant v builds
    a_n a_(n+1)/(a_n - a_(n+1)) from the two differences passed, which
    is -R[n] for our kind v (a common sign cancels). Its variant u would
    scale by θ + m = i + m where our kind u scales by n + 1, so kind u
    goes through variant t with the scaled remainder.
    """

    N = 40

    @pytest.fixture
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.mp.workdps(60):
            yield mpmath.mp

    def sums(self, mp):
        exact = take(partial_sums(leibniz_pi4_terms()), self.N)
        return exact, [mp.mpf(x.numerator) / x.denominator for x in exact.to_list()]

    def assert_agree(self, mp, ours, theirs):
        value = mp.mpf(ours.numerator) / ours.denominator
        assert abs(value - theirs) <= mp.mpf(10) ** -40 * abs(value)

    @pytest.mark.parametrize("kind", KINDS, ids=kind_code)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_levin_core_matches(self, mp, kind, k):
        exact, s = self.sums(mp)

        def d(n):
            return s[n + 1] - s[n]

        variant, omega = {
            Kind.T: ("t", lambda n: (d(n),)),
            Kind.U: ("t", lambda n: ((n + 1) * d(n),)),
            Kind.V: ("v", lambda n: (d(n), d(n + 1))),
        }[kind]
        ours = levin(kind, k, exact)
        for i in (0, 1, 2, 7, 20, ours.length - 1):
            theirs = mp.levin(method="levin", variant=variant)
            theirs.theta = i
            for m in range(k + 1):
                theirs.run(s[i + m], *omega(i + m))
            self.assert_agree(mp, ours.at(i), theirs.A[0] / theirs.B[0])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_kind_t_through_the_partial_sum_interface(self, mp, k):
        # Shifted by one term and translated by s[i], the window s[i..i+k]
        # becomes mpmath's S_m = s[i+m+1] - s[i], whose ω_m = a_(i+m+1) is
        # our R[i+m]. Σ w_m = 0 (a k-th difference of a degree k-1
        # polynomial), so the shift changes nothing and s[i] adds back.
        exact, s = self.sums(mp)
        ours = levin(Kind.T, k, exact)
        for i in (0, 3, 20, ours.length - 1):
            theirs = mp.levin(method="levin", variant="t")
            theirs.theta = i
            value, _ = theirs.update_psum([s[i + m + 1] - s[i] for m in range(k + 1)])
            self.assert_agree(mp, ours.at(i), value + s[i])

    def test_runtime_does_not_import_mpmath(self):
        # Under -I -S no site hook imports anything on the library's behalf,
        # so the child's modules are the ones the CLI itself loads.
        unused = ["bisect", "dataclasses", "inspect", "mpmath", "pathlib", "typing"]
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import seqaccel.cli\n"
                "status = seqaccel.cli.main(['growth-coeff', '--generator', 'catalan',"
                " '--terms', '800'])\n"
                f"print(status, [m for m in {unused!r} if m in sys.modules])")
        out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                             capture_output=True, text=True, check=True)
        assert out.stdout == "4.000000024\nstable-digits: 10\n0 []\n"


class TestLevinOrder2Form:
    """Order 2 is Σⱼ wⱼ s[i+j] Pⱼ over Σⱼ wⱼ Pⱼ, Pⱼ = ∏_{m≠j} R[i+m]."""

    def test_first_cell_drops_zero_weighted_summand(self):
        # At cell 0 the weight of s[0] is 0, so only the first two
        # summands contribute: 2*s[2]*R[1]*R[0] - 2*s[1]*R[2]*R[0].
        s = from_values([1, 3, 4, 9, 11, 20])
        r = remainder_estimate(Kind.T, s)
        num = 2 * F(4) * r.at(1) * r.at(0) - 2 * F(3) * r.at(2) * r.at(0)
        den = 2 * r.at(1) * r.at(0) - 2 * r.at(2) * r.at(0)
        assert levin(Kind.T, 2, s).at(0) == num / den

    def test_ones_substitution(self):
        # The denominator is the numerator's form with s replaced by ones.
        s = from_values([1, 3, 4, 9, 11, 20])
        r = remainder_estimate(Kind.U, s)

        def form(i, sp):
            return (
                (i + 2) * sp(i + 2) * r.at(i + 1) * r.at(i)
                - 2 * (i + 1) * sp(i + 1) * r.at(i + 2) * r.at(i)
                + i * sp(i) * r.at(i + 2) * r.at(i + 1)
            )

        out = levin(Kind.U, 2, s)
        assert out.length == 3
        for i in range(out.length):
            assert out.at(i) == form(i, s.at) / form(i, lambda j: 1)

    def test_matches_direct_weight_formula(self):
        # Small spans give zero differences, zero R and zero denominators.
        rng = random.Random(7)
        for _ in range(150):
            values = random_stream_values(rng, rng.randint(5, 9), span=2)
            for kind in KINDS:
                want = oracles.levin2_list(kind_code(kind), values)
                got = stream_cells(levin(kind, 2, from_values(values)), len(want))
                assert got == want, (values, kind)


# Every cell of Levin orders 1 and 2 on the MIXED_CAUSES streams, with the
# exact reason and cause of each undefined cell.
LEVIN_CELLS_WITH_CAUSES = [
    ("a", 1, Kind.T,
     [P(DZ), P(DZ), P(DZ), 4, 4, P(OOR), P(OOR), P(OOR), P(ZZ), P(ZZ)]),
    ("a", 1, Kind.U,
     [P(DZ), P(DZ), P(DZ), 4, 4, P(OOR), P(OOR), P(OOR), P(ZZ), P(ZZ)]),
    ("a", 1, Kind.V,
     [P(DZ), P(DZ), P(DZ), P(ZZ), 4, P(OOR), P(OOR), P(OOR), P(ZZ)]),
    ("a", 2, Kind.T,
     [P(DZ), P(DZ), P(DZ), ZZ, P(OOR), P(OOR), P(OOR), P(OOR), P(ZZ)]),
    ("a", 2, Kind.U,
     [P(DZ), P(DZ), P(DZ), ZZ, P(OOR), P(OOR), P(OOR), P(OOR), P(ZZ)]),
    ("a", 2, Kind.V,
     [P(DZ), P(DZ), P(ZZ), P(ZZ), P(OOR), P(OOR), P(OOR), P(ZZ)]),
    ("b", 1, Kind.T,
     [F(1, 2), F(1, 2), DZ, DZ, 1, 5, 5, P(ZZ), P(ZZ), P(ZZ), P(OOR), 1]),
    ("b", 1, Kind.U,
     [F(1, 3), F(3, 5), -3, -3, F(9, 7), 5, 5, P(ZZ), P(ZZ), P(ZZ), P(OOR), 1]),
    ("b", 1, Kind.V,
     [F(1, 2), P(DZ), P(DZ), P(DZ), 3, 3, 5, P(ZZ), P(ZZ), P(ZZ), P(OOR)]),
    ("b", 2, Kind.T,
     [F(1, 2), -1, DZ, F(11, 5), 5, 5, P(ZZ), P(ZZ), P(OOR), P(OOR), P(OOR)]),
    ("b", 2, Kind.U,
     [F(3, 5), F(-3, 13), -3, F(36, 13), 5, 5, P(ZZ), P(ZZ), P(OOR), P(OOR), P(OOR)]),
    ("b", 2, Kind.V,
     [P(DZ), P(DZ), P(DZ), P(DZ), ZZ, P(ZZ), P(ZZ), P(ZZ), P(OOR), P(OOR)]),
    ("c", 1, Kind.T,
     [P(OOR), P(DZ), P(ZZ), P(ZZ), P(OOR), 3, 3, P(DZ), P(DZ), 8, 5]),
    ("c", 1, Kind.U,
     [P(OOR), P(DZ), P(ZZ), P(ZZ), P(OOR), 3, 3, P(DZ), P(DZ), F(76, 9), F(67, 13)]),
    ("c", 1, Kind.V,
     [P(OOR), P(DZ), P(ZZ), P(ZZ), P(OOR), 2, P(DZ), P(DZ), P(DZ), 5]),
    ("c", 2, Kind.T,
     [P(DZ), P(ZZ), P(OOR), P(OOR), P(OOR), P(DZ), P(DZ), P(DZ), P(DZ), F(127, 20)]),
    ("c", 2, Kind.U,
     [P(DZ), P(ZZ), P(OOR), P(OOR), P(OOR), P(DZ), P(DZ), P(DZ), P(DZ), F(7789, 1201)]),
    ("c", 2, Kind.V,
     [P(ZZ), P(ZZ), P(OOR), P(OOR), P(OOR), P(DZ), P(DZ), P(DZ), P(DZ)]),
]


@pytest.mark.parametrize(
    "name,k,kind,want",
    LEVIN_CELLS_WITH_CAUSES,
    ids=[f"{name}-{k}-{kind.value}" for name, k, kind, _ in LEVIN_CELLS_WITH_CAUSES],
)
def test_levin_undefined_reason_and_cause(name, k, kind, want):
    assert levin(kind, k, from_values(MIXED_CAUSES[name])).to_list() == want


class TestCrossFamilyIdentities:
    def test_order_one_families_agree_on_nondegenerate_streams(self):
        rng = random.Random(31415)
        for _ in range(150):
            values = nondegenerate_stream_values(rng, rng.randint(4, 9))
            s = from_values(values)
            for kind in KINDS:
                lv = levin(kind, 1, s)
                ea = e_algorithm(kind, 1, s, GConvention.TEXT)
                n = min(lv.length, ea.length)
                assert stream_cells(lv, n) == stream_cells(ea, n)

    def test_translation_invariance_of_aitken_form(self):
        rng = random.Random(999)
        for _ in range(60):
            values = random_stream_values(rng, 7)
            shift = F(rng.randint(-5, 5), rng.randint(1, 5))
            base = levin(Kind.T, 1, from_values(values))
            shifted = levin(Kind.T, 1, from_values([v + shift for v in values]))
            for i in range(base.length):
                a, b = base.at(i), shifted.at(i)
                if isinstance(a, Undefined) or isinstance(b, Undefined):
                    assert isinstance(a, Undefined) and isinstance(b, Undefined)
                else:
                    assert b == a + shift

    def test_scaling_equivariance(self):
        rng = random.Random(424242)
        for _ in range(60):
            values = random_stream_values(rng, 8)
            factor = F(0)
            while factor == 0:
                factor = F(rng.randint(-6, 6), rng.randint(1, 6))
            scaled = [v * factor for v in values]
            for kind in (Kind.T, Kind.U):
                for order in (1, 2):
                    base = levin(kind, order, from_values(values))
                    other = levin(kind, order, from_values(scaled))
                    for i in range(base.length):
                        a, b = base.at(i), other.at(i)
                        if isinstance(a, Undefined) or isinstance(b, Undefined):
                            assert isinstance(a, Undefined) and isinstance(b, Undefined)
                        else:
                            assert b == a * factor


class TestTransformSpec:
    def test_levin_any_order(self):
        s = from_values([1, 3, 4, 9, 11, 20, 22, 31])
        spec = TransformSpec(Method.LEVIN, Kind.U, 3)
        assert spec.apply(s).to_list() == levin(Kind.U, 3, s).to_list()
        with pytest.raises(ValueError, match="^order must be >= 0, got -1$"):
            TransformSpec(Method.LEVIN, Kind.U, -1)

    def test_ealg_any_order(self):
        TransformSpec(Method.EALG, Kind.U, 7)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^order must be >= 0, got -1$"):
            TransformSpec(Method.EALG, Kind.U, -1)

    def test_apply_dispatches(self):
        s = from_values([1, 0, 1, 0, 1])
        via_spec = TransformSpec(Method.LEVIN, Kind.T, 1).apply(s)
        direct = levin(Kind.T, 1, s)
        assert via_spec.to_list() == direct.to_list()

        via_spec = TransformSpec(Method.EALG, Kind.T, 2, GConvention.CODE).apply(s)
        direct = e_algorithm(Kind.T, 2, s, GConvention.CODE)
        assert stream_cells(via_spec, via_spec.length) == stream_cells(direct, direct.length)

    def test_g_convention_changes_only_ealg_output(self):
        s = from_values([1, 3, 4, 9, 11, 20, 22, 31])

        def cells(method, convention):
            out = TransformSpec(method, Kind.T, 2, convention).apply(s)
            return stream_cells(out, out.length)

        assert cells(Method.EALG, GConvention.TEXT) != cells(Method.EALG, GConvention.CODE)
        assert cells(Method.LEVIN, GConvention.TEXT) == cells(Method.LEVIN, GConvention.CODE)
