import copy
import pickle
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

from seqaccel import (
    AccelerationReport,
    AtIndex,
    GConvention,
    InsufficientTermsError,
    Kind,
    Method,
    NumStream,
    TakeLast,
    TransformSpec,
    Undefined,
    UndefinedReason,
    accelerate_sequence,
    catalan_stream,
    from_function,
    from_values,
    grandi_terms,
    growth_coefficient,
    is_defined,
    last_defined,
    leibniz_pi4_terms,
    partial_sums,
    plain_lambda_terms_stream,
    ratio_stream,
    render_decimal,
    sum_series,
    take,
)

from seqaccel.estimators import _stable_digits
from seqaccel.scalars import _expansion

import oracles
from conftest import assert_stream_equals

F = Fraction

LEVIN_U2 = TransformSpec(Method.LEVIN, Kind.U, 2)
LEVIN_T1 = TransformSpec(Method.LEVIN, Kind.T, 1)
EALG_T2 = TransformSpec(Method.EALG, Kind.T, 2)
EALG_U4 = TransformSpec(Method.EALG, Kind.U, 4)

# entry point: (preparation, minimum take-last terms)
PIPELINES = {
    growth_coefficient: (ratio_stream, 2),
    sum_series: (partial_sums, 1),
    accelerate_sequence: (lambda s: s, 1),
}


def counting_stream(fn, length=None):
    forced = []

    def compute(i):
        forced.append(i)
        return fn(i)

    return NumStream(compute, length), forced


class ReadCountingStream(NumStream):
    """Source that counts the `at(i)` calls made on it, per index."""

    def __init__(self, compute, length=None):
        super().__init__(compute, length)
        self.reads = Counter()

    def at(self, i):
        self.reads[i] += 1
        return super().at(i)


def reference_report(run, spec, fn, length, n_terms, mode, digits):
    """(estimate, terms_used, digits_stable) from an explicit rerun.

    Runs the pipeline from public functions on a fresh source, then runs
    it again with n - 1 terms (TakeLast) or at index i - 1 (AtIndex(i))
    and counts the leading renderings on which the two values agree.
    """
    prepare, min_terms = PIPELINES[run]

    def evaluate(count, at):
        source, forced = counting_stream(fn, length)
        if at is None:
            value = last_defined(spec.apply(prepare(take(source, count))))
        else:
            value = spec.apply(prepare(source)).at(at)
        return value, max(forced) + 1 if forced else 0

    if isinstance(mode, TakeLast):
        estimate, used = evaluate(n_terms, None)
        previous = evaluate(n_terms - 1, None)[0] if n_terms - 1 >= min_terms else None
    else:
        estimate, used = evaluate(None, mode.index)
        previous = evaluate(None, mode.index - 1)[0] if mode.index > 0 else None
    stable = 0
    if previous is not None and is_defined(previous) and is_defined(estimate):
        while (stable < digits and render_decimal(estimate, stable + 1)
               == render_decimal(previous, stable + 1)):
            stable += 1
    return estimate, used, stable


class TestRatioStream:
    def test_consecutive_ratios(self):
        out = ratio_stream(from_values([1, 1, 2, 5, 14]))
        assert_stream_equals(out, [1, 2, F(5, 2), F(14, 5)])

    def test_leading_zeros_skipped(self):
        out = ratio_stream(from_values([0, 0, 1, 1, 2]))
        assert_stream_equals(out, [1, 2])

    def test_geometric_gives_constant(self):
        out = ratio_stream(from_function(lambda i: F(3) ** i))
        assert out.length is None
        assert all(out.at(i) == 3 for i in range(10))

    def test_interior_zero_yields_undefined_cell(self):
        out = ratio_stream(from_values([1, 0, 2, 3]))
        assert out.at(0) == 0
        assert isinstance(out.at(1), Undefined)
        assert out.at(2) == F(3, 2)

    def test_all_zero_finite_is_empty(self):
        assert ratio_stream(from_values([0, 0, 0])).length == 0

    def test_matches_oracle(self):
        values = [0, 2, 6, 0, 5, 10]
        got = ratio_stream(from_values(values))
        want = oracles.ratios_list(values)
        assert got.length == len(want)
        for i, w in enumerate(want):
            cell = got.at(i)
            if w is None:
                assert isinstance(cell, Undefined)
            else:
                assert cell == w


class TestGrowthCoefficient:
    def test_constant_ratio_recovered_exactly(self):
        source = from_function(lambda i: F(3) ** i)
        report = growth_coefficient(LEVIN_T1, source, 10)
        assert report.estimate == F(3)
        assert report.rendered == "3.000000000"
        assert report.digits_stable == 10

    def test_take_last_requires_two_terms(self):
        with pytest.raises(ValueError):
            growth_coefficient(LEVIN_T1, from_values([1, 2, 4, 8]), 1)

    def test_insufficient_terms_rejected(self):
        with pytest.raises(InsufficientTermsError):
            growth_coefficient(LEVIN_T1, from_values([1, 2, 4]), 10)

    def test_determinism(self):
        source = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
        a = growth_coefficient(LEVIN_U2, from_values(source), 10)
        b = growth_coefficient(LEVIN_U2, from_values(source), 10)
        assert a == b

    def test_monotone_consumption(self):
        consumed = []
        for n in range(6, 12):
            stream, forced = counting_stream(lambda i: F(2) ** i)
            growth_coefficient(LEVIN_T1, stream, n)
            consumed.append(max(forced) + 1)
        assert consumed == sorted(consumed)

    def test_at_index_mode_reads_untruncated_pipeline(self):
        source = from_function(lambda i: F(3) ** i)
        report = growth_coefficient(LEVIN_T1, source, mode=AtIndex(4))
        assert report.estimate == F(3)

    def test_report_counts_forced_source_cells(self):
        # Non-constant ratios, so the last cell really needs the last term.
        stream, forced = counting_stream(lambda i: F(2) ** i + i)
        report = growth_coefficient(LEVIN_T1, stream, 8)
        assert report.terms_used == max(forced) + 1 == 8


class TestSumSeries:
    def test_geometric_series_exact(self):
        terms = from_function(lambda i: F(1, 2) ** i)
        report = sum_series(LEVIN_T1, terms, 6)
        assert report.estimate == F(2)

    def test_grandi_take_last(self):
        report = sum_series(EALG_T2, grandi_terms(), 8)
        assert report.estimate == F(1, 2)

    def test_grandi_at_index(self):
        report = sum_series(EALG_T2, grandi_terms(), mode=AtIndex(0))
        assert report.estimate == F(1, 2)

    def test_alternating_naturals_fourth_order(self):
        terms = from_function(lambda i: F(i) if i % 2 == 1 else F(-i))
        report = sum_series(EALG_U4, terms, 12)
        assert report.estimate == F(1, 4)

    def test_take_last_and_at_index_agree_on_stable_pipelines(self):
        report_last = sum_series(EALG_T2, grandi_terms(), 8)
        report_idx = sum_series(EALG_T2, grandi_terms(), mode=AtIndex(2))
        assert report_last.estimate == report_idx.estimate

    def test_leibniz_past_the_digit_limit(self):
        # The partial sums' numerators and denominators pass 4300 digits.
        report = sum_series(LEVIN_U2, leibniz_pi4_terms(), 6000, digits=15)
        assert report.rendered == "0.785398163397448"
        assert report.digits_stable == 15
        assert report.terms_used == 6000
        assert abs(report.estimate - oracles.pi_quarter_reference()) < F(1, 10 ** 15)

    @pytest.mark.parametrize("spec,rendered,undefined", [
        (LEVIN_U2, "0.6932388084", lambda i: i == 9),
        (EALG_T2, "0.6931521281", lambda i: i == 9),
        (LEVIN_U2, "0.6932388084", lambda i: i >= 9 and i % 2),
        (EALG_T2, "0.6931521281", lambda i: i >= 9 and i % 2),
    ], ids=["levin-u2", "ealg-t2", "levin-u2-every-other", "ealg-t2-every-other"])
    def test_walk_down_past_an_undefined_term_is_linear(self, spec, rendered, undefined):
        # Every partial sum from cell 9 up is poisoned, so take-last walks
        # down all of them. Each step reads one term, not a sum from term 0:
        # where term i + 1 is undefined too, cell i is known poisoned from
        # the first sum, which read every term.
        class PrefixCounting(NumStream):
            def prefix(self, n):
                self.cells_read += n
                return super().prefix(n)

        n = 3000
        div0 = Undefined(UndefinedReason.DIV_BY_ZERO)
        terms = PrefixCounting(lambda i: div0 if undefined(i) else F((-1) ** i, i + 1), n)
        terms.cells_read = 0
        report = sum_series(spec, terms, n)
        assert (report.rendered, report.digits_stable, report.terms_used) == (rendered, 10, n)
        assert terms.cells_read <= n + 10

    def test_empty_transform_output_reports_undefined(self):
        # Three partial sums are too few for a second-order elimination.
        report = sum_series(EALG_T2, grandi_terms(), 3)
        assert isinstance(report.estimate, Undefined)
        assert report.rendered.startswith("undefined(")


class TestAccelerateSequence:
    def test_order_zero_echoes_last_value(self):
        report = accelerate_sequence(
            TransformSpec(Method.LEVIN, Kind.T, 0), from_values([4, 5, 6]), 3
        )
        assert report.estimate == F(6)

    def test_applies_transform_to_raw_input(self):
        values = [F(1), F(0), F(1), F(0), F(1)]
        report = accelerate_sequence(LEVIN_T1, from_values(values), 5)
        assert report.estimate == F(1, 2)


class TestReports:
    def test_readme_library_tour(self):
        report = growth_coefficient(LEVIN_U2, catalan_stream(), 800)
        assert report.rendered == "4.000000024"
        assert report.digits_stable == 10

    @pytest.mark.parametrize("mode", [TakeLast(), AtIndex(5)], ids=["take-last", "at-index-5"])
    @pytest.mark.parametrize("spec", [LEVIN_U2, TransformSpec(Method.EALG, Kind.V, 3)],
                             ids=["levin-u2", "ealg-v3"])
    @pytest.mark.parametrize("run", list(PIPELINES), ids=lambda f: f.__name__)
    def test_each_source_cell_read_once(self, run, spec, mode):
        source = ReadCountingStream(lambda i: F(3) ** i + F(1, i + 1))
        run(spec, source, 20, mode=mode)
        assert source.reads
        assert set(source.reads.values()) == {1}

    # Streams built by one TakeLast growth_coefficient or sum_series report:
    # source, input view, preparation, Δs, R, the transform (for the
    # E-algorithm, its table) and the one-shorter cut. Kind t's R is Δs
    # itself; kinds u and v build one R stream over it.
    @pytest.mark.parametrize("mode", [TakeLast(), AtIndex(5)], ids=["take-last", "at-index-5"])
    @pytest.mark.parametrize("spec,streams", [
        (TransformSpec(Method.LEVIN, Kind.T, 2), 6),
        (TransformSpec(Method.LEVIN, Kind.U, 2), 7),
        (TransformSpec(Method.LEVIN, Kind.V, 2), 7),
        (TransformSpec(Method.EALG, Kind.V, 3), 7),
    ], ids=["levin-t2", "levin-u2", "levin-v2", "ealg-v3"])
    @pytest.mark.parametrize("run", list(PIPELINES), ids=lambda f: f.__name__)
    def test_one_stream_per_stage(self, monkeypatch, run, spec, streams, mode):
        built = []
        init = NumStream.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(NumStream, "__init__", counting_init)
        run(spec, NumStream(lambda i: F(3) ** i + F(1, i + 1)), 20, mode=mode)
        if run is accelerate_sequence:  # no preparation stage
            streams -= 1
        if isinstance(mode, AtIndex):  # no cut: the previous cell is read directly
            streams -= 1
        assert len(built) == streams

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    @pytest.mark.parametrize("run", list(PIPELINES), ids=lambda f: f.__name__)
    def test_digits_stable_matches_explicit_rerun(self, run, method):
        u = Undefined(UndefinedReason.DIV_BY_ZERO)
        rng = random.Random(11)
        noisy = [rng.choice([0, 1, 1, -2, 3, F(1, 2), u]) for _ in range(12)]
        sources = [
            (from_values([1, 3, 0, 4, 4, 4, 9, 2, 0, 7, 5, 11]).at, 12),
            (from_values([2, 2, 2, 5, u, 6, 1, 3, 3, 8]).at, 10),
            (from_values([0, 0, 1, 1, 2, 5, 14, 42, 132, 429, 1430]).at, 11),
            (from_values(noisy).at, 12),
            (lambda i: F(1, i * i + 3) + F(-1, 2) ** i, None),
        ]
        _, min_terms = PIPELINES[run]
        for kind in Kind:
            for order in range(5):
                conv = list(GConvention)[order % 2]
                spec = TransformSpec(method, kind, order, g_convention=conv)
                for fn, length in sources:
                    n_max = length or 12
                    cases = [(TakeLast(), n) for n in (min_terms, n_max - 3, n_max)]
                    cases += [(AtIndex(0), None), (AtIndex(3), None)]
                    for mode, n in cases:
                        report = run(spec, NumStream(fn, length), n, mode=mode, digits=6)
                        want = reference_report(run, spec, fn, length, n, mode, 6)
                        got = (report.estimate, report.terms_used, report.digits_stable)
                        assert repr(got) == repr(want), (spec, length, mode, n)

    def test_rendered_respects_digit_request(self):
        source = from_function(lambda i: F(3) ** i)
        report = growth_coefficient(LEVIN_T1, source, 10, digits=4)
        assert report.rendered == "3.000"

    def test_digits_stable_zero_when_previous_run_empty(self):
        report = sum_series(EALG_T2, grandi_terms(), 4)
        # The 3-term run has no defined output cell, so nothing to compare.
        assert report.digits_stable == 0

    def test_digits_stable_counts_common_prefix(self):
        # Identity transform on geometric partial sums: the 6-term run gives
        # 1.96875, the 5-term run 1.9375; they agree on one leading digit.
        ident = TransformSpec(Method.LEVIN, Kind.T, 0)
        terms = from_function(lambda i: F(1, 2) ** i)
        report = sum_series(ident, terms, 6, digits=8)
        assert report.estimate == F(63, 32)
        assert report.digits_stable == 1

    def test_stable_digits_matches_rendering_loop(self):
        def explicit(current, previous, up_to):
            # Render both at each precision and stop at the first difference.
            if not (is_defined(current) and is_defined(previous)):
                return 0
            agreed = 0
            for d in range(1, up_to + 1):
                if render_decimal(current, d) != render_decimal(previous, d):
                    break
                agreed = d
            return agreed

        rng = random.Random(23)
        u = Undefined(UndefinedReason.DIV_BY_ZERO)

        def scaled(x):
            return x * F(10) ** rng.randint(-9, 14)

        def partner(x):
            roll = rng.randrange(6)
            if roll == 0:  # near-tie: nudge by up to 60 parts in 10^1 .. 10^14
                return x * (1 + F(rng.randint(-60, 60), 10 ** rng.randint(1, 14)))
            if roll == 1:
                return -x
            if roll == 2:
                return rng.choice([F(0), u, x])
            if roll == 3:  # exact halfway point at a random precision
                k = rng.randint(1, 12)
                return F(rng.randint(10 ** (k - 1), 10 ** k - 1) * 10 + 5, 10 ** (k + 1))
            return scaled(F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)))

        pairs = [
            (F(1949, 10000), F(1951, 10000)),
            (F(99996, 100000), F(1)),
            (F(99996, 100000), F(99994, 100000)),
            (F(-99996, 10 ** 9), F(-1, 10 ** 4)),
            (F(0), F(0)),
            (F(0), u),
            (u, u),
        ]
        for _ in range(2000):
            base = rng.randrange(3)
            if base == 0:  # just below a power of ten: rounds up and rolls over
                x = scaled(1 - F(rng.randint(1, 9), 10 ** rng.randint(2, 12)))
            elif base == 1:
                x = scaled(F(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9)))
            else:
                x = F(rng.randint(-(10 ** 12), 10 ** 12), rng.randint(1, 10 ** 4))
            pairs.append((x, partner(x)) if rng.random() < 0.5 else (partner(x), x))

        counts = Counter()
        for current, previous in pairs:
            up_to = rng.randint(1, 40)
            want = explicit(current, previous, up_to)
            assert _stable_digits(current, previous, up_to) == want, (current, previous, up_to)
            counts[want] += 1
            if is_defined(current) and current != 0:
                counts["scientific" if "e" in render_decimal(current, up_to) else "positional"] += 1
        # The sample reaches both notations and agreement counts 0 through 12.
        assert counts["scientific"] > 100 and counts["positional"] > 100
        assert all(counts[k] > 0 for k in range(0, 13))

    def test_stable_digits_one_pass_matches_per_digit_rounding(self):
        def exponent(x):
            a, e = abs(x), 0
            while a >= F(10) ** (e + 1):
                e += 1
            while a < F(10) ** e:
                e -= 1
            return e

        def rounded(x, d):
            # Sign, d-digit mantissa and exponent of x != 0, rounded ties to
            # even by `round` on an exact Fraction: one rounding per d.
            e = exponent(x)
            m = round(abs(x) / F(10) ** (e - d + 1))
            return (x < 0, m // 10, e + 1) if m == 10 ** d else (x < 0, m, e)

        def per_digit(x, y, up_to):
            if x == y:
                return up_to
            if x == 0 or y == 0:
                return 0
            agreed = 0
            for d in range(1, up_to + 1):
                if rounded(x, d) != rounded(y, d):
                    break
                agreed = d
            return agreed

        rng = random.Random(1515)
        pairs = [
            (F(1949, 10000), F(1951, 10000)),  # differ at 2 digits, agree at 3
            (F(19999, 100000), F(20001, 100000)),  # carry: agree up to 4 digits
            (F(99996, 100000), F(1)),  # rollover to the next exponent
            (F(99996, 100000), F(10001, 10000)),
            (F(-99996, 10 ** 9), F(-1, 10 ** 4)),
            (F(1, 3), F(-1, 3)),  # opposite signs
            (F(25, 1000), F(35, 1000)),  # exact ties, rounded to even
            (F(125, 1000), F(135, 10000)),  # exponents two apart
        ]
        for _ in range(1500):
            e, digits = rng.randint(-30, 30), rng.randint(1, 40)
            x = F(rng.randint(1, 10 ** digits), 10 ** digits) * F(10) ** e
            if rng.random() < 0.3:  # just below a power of ten
                x = (1 - F(rng.randint(1, 99), 10 ** rng.randint(2, 40))) * F(10) ** e
            shift = F(rng.randint(-999, 999), 10 ** rng.randint(1, 45))
            y = rng.choice([x + shift * F(10) ** e, x * (1 + shift), -x * (1 + shift),
                            x * 10 + shift, x / 10 * (1 + shift),
                            F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))])
            pairs.append((x, y) if rng.random() < 0.5 else (y, x))
        seen = Counter()
        for x, y in pairs:
            up_to = rng.randint(1, 60)
            want = per_digit(x, y, up_to)
            assert _stable_digits(x, y, up_to) == want, (x, y, up_to)
            seen["exponents differ" if x * y > 0 and exponent(x) != exponent(y)
                 else "same exponent"] += want > 0
            seen[min(want, 30)] += 1
        assert seen["exponents differ"] > 20 and seen["same exponent"] > 200, seen
        assert all(seen[d] > 0 for d in range(31)), seen
        # Long agreements: one expansion per value, one scan for the first digit
        # that differs, and a rounding only at the few digit counts that can decide.
        third = F(1, 3)
        assert _stable_digits(third, third + F(1, 10 ** 4000), 4010) == 3999
        assert _stable_digits(1 - F(1, 10 ** 3000), 1 + F(1, 10 ** 3500), 6000) == 2999
        assert _stable_digits(-third, -third - F(1, 10 ** 6000), 6010) == 5999

    def test_equal_values_are_stable_without_rounding(self, monkeypatch):
        calls = []
        monkeypatch.setattr("seqaccel.estimators._expansion",
                            lambda *args: calls.append(args))
        for x in (F(1, 3), F(-7, 2) * F(10) ** 40, F(4), F(0)):
            assert _stable_digits(x, F(x), 16_000) == 16_000
        assert calls == []

    def test_report_expands_the_estimate_once(self, monkeypatch):
        expanded = []

        def counted(value, n):
            expanded.append(value)
            return _expansion(value, n)

        monkeypatch.setattr("seqaccel.estimators._expansion", counted)
        monkeypatch.setattr("seqaccel.scalars._expansion", counted)
        report = growth_coefficient(LEVIN_U2, catalan_stream(), 800, digits=500)
        # Once for the rendering and the stability count, once for the previous cell.
        assert expanded.count(report.estimate) == 1 and len(expanded) == 2
        assert report.rendered == render_decimal(report.estimate, 500)

    def test_stable_digits_matches_rendering_loop_on_long_digit_strings(self):
        def rendering_loop(x, y, up_to):
            d = 0
            while d < up_to and render_decimal(x, d + 1) == render_decimal(y, d + 1):
                d += 1
            return d

        def digits(n):
            # Runs of 9s and 0s carry and roll over; 5s followed by 0s are ties.
            return "".join(rng.choice(rng.choice(["0123456789", "09", "059", "5"]))
                           for _ in range(n))

        rng = random.Random(2025)
        seen = Counter()
        for _ in range(600):
            head = rng.choice("123456789") + digits(rng.randint(0, 300))
            unit = F(10) ** rng.randint(-320, 300)
            x = F(int(head), F(10) ** len(head)) * unit  # 0.<head> units
            roll = rng.randrange(4)
            if roll == 0:  # x nudged in one decimal place, inside its digits or past them
                nudge = F(rng.randint(1, 9), F(10) ** rng.randint(0, 340))
                y = x + rng.choice((-1, 1)) * nudge * unit
            elif roll == 1:  # a shared head, then other digits (or none: an exact tie)
                other = head[:rng.randint(1, len(head))] + digits(rng.randint(0, 20))
                y = F(int(other), F(10) ** len(other)) * unit
            elif roll == 2:  # exponents one apart, as 0.0999... and 0.1000... are
                y = x * F(10) ** rng.choice((-1, 1)) + F(rng.randint(-9, 9), F(10) ** 330) * unit
            else:  # 9...9 just below a power of ten, against that power
                nines = rng.randint(1, 300)
                x = (1 - F(rng.randint(1, 9), F(10) ** (nines + rng.randint(0, 3))))
                y = 1 + F(rng.randint(-9, 9), F(10) ** rng.randint(1, 330))
            if y <= 0:
                continue
            if rng.random() < 0.5:
                x, y = -y, -x
            up_to = rng.choice([rng.randint(1, 320), len(head), max(len(head) - 1, 1)])
            want = rendering_loop(x, y, up_to)
            assert _stable_digits(x, y, up_to) == want, (x, y, up_to)
            seen[("long" if want > 100 else "short") if want else "none"] += 1
            expansions = _expansion(x, up_to), _expansion(y, up_to)
            seen["exponents differ"] += want > 0 and expansions[0][0] != expansions[1][0]
            # A tie at the first digit count where the renderings differ.
            d = want + 1
            seen["tie"] += d <= up_to and any(ds[d] == "5" and end == d + 1
                                              for _, ds, end in expansions)
        assert seen["long"] > 50 and seen["short"] > 100 and seen["none"] > 20, seen
        assert seen["exponents differ"] > 20 and seen["tie"] > 10, seen

    def test_pi_quarter_benchmark_beats_raw_sums(self):
        reference = oracles.pi_quarter_reference()
        report = sum_series(LEVIN_U2, leibniz_pi4_terms(), 20)
        raw = partial_sums(take(leibniz_pi4_terms(), 20)).at(19)
        assert abs(report.estimate - reference) < abs(raw - reference)

    @pytest.mark.parametrize("run", list(PIPELINES), ids=lambda f: f.__name__)
    def test_zero_digits_rejected_before_any_read(self, run):
        source, forced = counting_stream(lambda i: F(i + 1))
        with pytest.raises(ValueError, match="^digits must be >= 1, got 0$"):
            run(LEVIN_U2, source, 10, digits=0)
        assert forced == []


class TestSharedSources:
    """Reports over one source that 8 threads share equal single-threaded
    reports on a fresh source, `terms_used` included."""

    CASES = [(spec, mode) for spec in (LEVIN_U2, EALG_T2, TransformSpec(Method.LEVIN, Kind.V, 3))
             for mode in (TakeLast(), AtIndex(90))]

    @pytest.mark.parametrize("run,make,n_terms", [
        (growth_coefficient, catalan_stream, 200),
        (growth_coefficient, plain_lambda_terms_stream, 150),
        (sum_series, leibniz_pi4_terms, 300),
    ], ids=["catalan", "plain-lambda", "leibniz"])
    def test_threads_on_one_source_match_a_fresh_source(self, run, make, n_terms):
        want = [run(spec, make(), n_terms, digits=20, mode=mode) for spec, mode in self.CASES]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared, start, seen = make(), threading.Barrier(8), {}

                def read(reader: int) -> None:
                    start.wait(timeout=60)
                    reports = [None] * len(self.CASES)
                    for c in range(reader, reader + len(self.CASES)):  # each starts elsewhere
                        spec, mode = self.CASES[c % len(self.CASES)]
                        reports[c % len(self.CASES)] = run(spec, shared, n_terms, digits=20,
                                                           mode=mode)
                    seen[reader] = reports

                threads = [threading.Thread(target=read, args=(r,)) for r in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(seen) == list(range(8))
                for reports in seen.values():
                    assert reports == want
        finally:
            sys.setswitchinterval(interval)


# The five records: a factory, the repr pinned in the format `dataclasses`
# prints, a field, unequal values, and an invalid call with its message.
RECORDS = {
    "Undefined": (
        lambda: Undefined(UndefinedReason.PROPAGATED_FROM_INPUT, UndefinedReason.DIV_BY_ZERO),
        "Undefined(propagated-from-input, cause=div-by-zero)", "cause",
        [Undefined(UndefinedReason.PROPAGATED_FROM_INPUT),
         (UndefinedReason.PROPAGATED_FROM_INPUT, UndefinedReason.DIV_BY_ZERO),
         UndefinedReason.DIV_BY_ZERO, F(0), None],
        None),
    "TakeLast": (TakeLast, "TakeLast()", "index", [AtIndex(0)], None),
    "AtIndex": (
        lambda: AtIndex(0), "AtIndex(index=0)", "index", [AtIndex(1), TakeLast()],
        (lambda: AtIndex(-1), "output index must be >= 0, got -1")),
    "TransformSpec": (
        lambda: TransformSpec(Method.EALG, Kind.V, 4, GConvention.CODE),
        "TransformSpec(method=<Method.EALG: 'ealg'>, kind=<Kind.V: 'v'>, order=4, "
        "g_convention=<GConvention.CODE: 'code'>)", "order",
        [TransformSpec(Method.EALG, Kind.V, 4), TransformSpec(Method.LEVIN, Kind.V, 4)],
        (lambda: TransformSpec(Method.LEVIN, Kind.U, -1), "order must be >= 0, got -1")),
    "AccelerationReport": (
        lambda: growth_coefficient(LEVIN_U2, catalan_stream(), 800),
        "AccelerationReport(terms_used=800, estimate=Fraction(1012521554, 253130387), "
        "rendered='4.000000024', digits_stable=10)", "estimate",
        [AccelerationReport(800, F(4), "4.000000024", 10)],
        None),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_contract(name):
    make, text, field, unequal, invalid = RECORDS[name]
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b and hash(a) == hash(b)
    assert a  # truthy, even the field-less TakeLast() and AtIndex(0)
    for other in unequal:
        assert a != other and not a == other and not other == a
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, attr, 1)
    assert repr(a) == text
    if name == "Undefined":  # __setattr__ refuses, so these go through __reduce__
        for u in (Undefined(UndefinedReason.DIV_BY_ZERO), a):
            for twin in (copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
                assert twin == u and twin is not u and repr(twin) == repr(u)
    if invalid:
        call, message = invalid
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
