import gc
import random
import sys
import threading
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import event, example, given, strategies as st

from seqaccel import (
    NumStream,
    Undefined,
    UndefinedReason,
    catalan_stream,
    forward_difference,
    from_function,
    from_values,
    iota,
    last_defined,
    partial_sums,
    take,
)
from seqaccel import streams
from seqaccel.scalars import is_defined

import oracles
from conftest import assert_stream_equals

F = Fraction

small_value_lists = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    min_size=0,
    max_size=10,
)


def counting_source(values=None, infinite_value=F(1)):
    """Stream whose producer records which indices were computed."""
    calls = []

    def compute(i):
        calls.append(i)
        if values is not None:
            return values[i]
        return infinite_value

    length = None if values is None else len(values)
    return NumStream(compute, length), calls


class TestAt:
    def test_first_cell_of_iota(self):
        assert iota(1, 1).at(0) == F(1)

    def test_past_the_end_is_out_of_range(self):
        s = take(iota(1, 1), 3)
        out = s.at(5)
        assert isinstance(out, Undefined)
        assert out.reason is UndefinedReason.OUT_OF_RANGE

    def test_sparse_access_on_constant_stream(self):
        assert iota(1, 0).at(10 ** 6) == F(1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            iota(0, 1).at(-1)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="^stream length must be >= 0, got -1$"):
            NumStream(lambda i: F(i), -1)

    def test_listing_an_infinite_stream_rejected(self):
        with pytest.raises(ValueError, match="^cannot list an infinite stream$"):
            iota(1, 1).to_list()

    def test_repr_names_the_extent(self):
        assert repr(iota(0, 1)) == "<NumStream length=inf>"
        assert repr(from_values([1, 2, 3])) == repr(take(iota(0, 1), 3)) == "<NumStream length=3>"

    def test_memoization_computes_each_cell_once(self):
        s, calls = counting_source([F(3), F(5), F(8)])
        for _ in range(4):
            assert s.at(1) == F(5)
        assert calls == [1]

    def test_determinism_structural_equality(self):
        s = forward_difference(from_values([1, Undefined(UndefinedReason.DIV_BY_ZERO), 2, 4]))
        first = [s.at(i) for i in range(3)]
        second = [s.at(i) for i in range(3)]
        assert first == second


class TestCombinators:
    def test_from_function_coerces_each_cell_to_an_element(self):
        s = from_function(lambda i: (i, "1/2", F(2, 3), Undefined(UndefinedReason.DIV_BY_ZERO))[i])
        assert [(type(c), c) for c in s.prefix(3)] == [
            (Fraction, 0), (Fraction, F(1, 2)), (Fraction, F(2, 3))]
        assert s.at(3) == Undefined(UndefinedReason.DIV_BY_ZERO)

    def test_from_function_rejects_a_float(self):
        # A float has no exact Element; the coercion raises on the read.
        s = from_function(lambda i: 0.5)
        with pytest.raises(TypeError, match="cannot convert float to an Element"):
            s.at(0)

    def test_from_function_keeps_its_length(self):
        calls = []
        s = from_function(lambda i: calls.append(i) or i, 3)
        assert s.length == 3 and s.to_list() == [0, 1, 2]
        assert s.at(3).reason == UndefinedReason.OUT_OF_RANGE and calls == [0, 1, 2]

    def test_iota_progressions(self):
        assert [iota(1, 1).at(i) for i in range(3)] == [1, 2, 3]
        assert [iota(2, 2).at(i) for i in range(3)] == [2, 4, 6]
        assert [iota(0, 1).at(i) for i in range(3)] == [0, 1, 2]

    def test_repeat_const_prefix(self):
        # A repeated constant is the zero-step progression iota(c, 0).
        assert iota(1, 0).prefix(3) == [1, 1, 1]

    def test_take(self):
        assert_stream_equals(take(iota(1, 1), 3), [1, 2, 3])
        assert take(iota(1, 1), 0).length == 0
        assert_stream_equals(take(from_values([1, 2]), 5), [1, 2])

    def test_take_negative_rejected(self):
        with pytest.raises(ValueError):
            take(iota(0, 1), -1)

    def test_take_reads_through_its_input_cache(self):
        src, calls = counting_source()
        view = take(take(src, 400), 300)
        assert view.prefix(300) == [1] * 300
        assert view._cache is src._cache and len(src._cache) == 300
        assert sorted(calls) == list(range(300))

    def test_from_values_keeps_each_value_once(self):
        s = from_values(range(100))
        assert s._cache == {i: i for i in range(100)}
        assert s._compute.__self__ is s._cache  # no second container of the cells
        assert s.to_list() == list(range(100)) and len(s._cache) == 100


class TestLastDefined:
    def test_all_defined(self):
        assert last_defined(from_values([1, 2, 3])) == F(3)

    def test_skips_trailing_undefined(self):
        u = Undefined(UndefinedReason.DIV_BY_ZERO)
        assert last_defined(from_values([1, u, 2])) == F(2)
        assert last_defined(from_values([1, 2, u])) == F(2)

    def test_no_defined_cell(self):
        u = Undefined(UndefinedReason.DIV_BY_ZERO)
        out = last_defined(from_values([u]))
        assert isinstance(out, Undefined)
        assert out.reason is UndefinedReason.OUT_OF_RANGE

    def test_infinite_stream_rejected(self):
        with pytest.raises(ValueError):
            last_defined(iota(0, 1))


class TestDifferencesAndSums:
    def test_difference_of_squares(self):
        assert_stream_equals(forward_difference(from_values([1, 4, 9, 16])), [3, 5, 7])

    def test_difference_of_constant_is_zero(self):
        d = forward_difference(iota(F(5, 7), 0))
        assert all(d.at(i) == 0 for i in range(6))

    def test_difference_of_alternating_partial_sums(self):
        assert_stream_equals(forward_difference(from_values([1, 0, 1, 0])), [-1, 1, -1])

    def test_partial_sums_of_grandi_terms(self):
        assert_stream_equals(partial_sums(from_values([1, -1, 1, -1])), [1, 0, 1, 0])

    def test_partial_sums_of_alternating_naturals(self):
        assert_stream_equals(partial_sums(from_values([0, 1, -2, 3, -4])), [0, 1, -1, 2, -2])

    def test_partial_sums_of_ones(self):
        s = partial_sums(iota(1, 0))
        assert [s.at(i) for i in range(5)] == [1, 2, 3, 4, 5]

    @given(values=small_value_lists)
    def test_difference_undoes_partial_sums(self, values):
        terms = from_values(values)
        out = forward_difference(partial_sums(terms))
        assert out.length == max(len(values) - 1, 0)
        for i in range(out.length):
            assert out.at(i) == values[i + 1]

    @given(cells=st.lists(st.one_of(
        st.fractions(min_value=-50, max_value=50, max_denominator=20),
        st.builds(F, st.integers(-2 ** 1100, 2 ** 1100), st.integers(2 ** 1000, 2 ** 1100)),
        st.builds(F, st.integers(2 ** 1000, 2 ** 1100) | st.integers(-2 ** 1100, -2 ** 1000)),
        st.sampled_from([Undefined(reason) for reason in UndefinedReason]),
    ), max_size=8))
    @example(cells=[F(-3, 7), F(2 ** 1200 + 1, 3 * 2 ** 1001), F(-5, 2 ** 1001)])
    @example(cells=[Undefined(UndefinedReason.DIV_BY_ZERO), Undefined(UndefinedReason.OUT_OF_RANGE)])
    def test_difference_cells_are_fraction_differences(self, cells):
        # Each cell is built from two Fractions' slots; it must equal
        # `Fraction.__sub__`'s, in lowest terms over a positive denominator.
        # Doubling every cell gives equal neighbours, whose difference is 0/1.
        for values in (cells, [c for c in cells for _ in range(2)]):
            d = forward_difference(from_values(values)).to_list()
            for i, got in enumerate(d):
                b, a = values[i + 1], values[i]
                if is_defined(a) and is_defined(b):
                    want = F.__sub__(b, a)
                    assert type(got) is F and got.as_integer_ratio() == want.as_integer_ratio()
                    assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1
                else:  # s[i+1]'s cause comes first, as in `sub(s[i+1], s[i])`
                    first = b if not is_defined(b) else a
                    assert got == Undefined(UndefinedReason.PROPAGATED_FROM_INPUT, first.cause)

    @given(values=small_value_lists)
    def test_extent_arithmetic(self, values):
        s = from_values(values)
        assert forward_difference(s).length == max(len(values) - 1, 0)
        assert take(s, 3).length == min(len(values), 3)


class TestLaziness:
    def test_difference_forces_one_ahead_only(self):
        src, calls = counting_source()
        forward_difference(src).at(3)
        assert sorted(set(calls)) == [3, 4]

    def test_partial_sums_force_prefix_only(self):
        src, calls = counting_source()
        partial_sums(src).at(4)
        assert max(calls) == 4

    def test_from_function_calls_fn_once_per_read_cell(self):
        calls = []
        s = from_function(lambda i: calls.append(i) or i)
        assert s.at(5) == 5 and s.at(5) == 5 and s.at(2) == 2
        assert calls == [5, 2]

    def test_take_out_of_range_forces_nothing(self):
        src, calls = counting_source()
        take(src, 3).at(7)
        assert calls == []

    def test_upstream_cells_computed_once_through_sharing(self):
        src, calls = counting_source()
        d = forward_difference(src)
        dd = forward_difference(d)
        dd.at(0)
        dd.at(0)
        d.at(0)
        assert sorted(calls) == [0, 1, 2]


class _LoggedAt(NumStream):
    """A stream that overrides `at` and logs each call to it."""

    __slots__ = ("log",)

    def at(self, i):
        self.log.append(("at", i))
        return super().at(i)


prefix_cells = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.sampled_from([Undefined(UndefinedReason.DIV_BY_ZERO),
                     Undefined(UndefinedReason.PROPAGATED_FROM_INPUT,
                               UndefinedReason.INDETERMINATE_ZERO_OVER_ZERO)]),
)


class TestPrefix:
    """`prefix(n)` is `[at(i) for i in range(min(n, length))]`, side effects included."""

    @given(data=st.data())
    def test_prefix_matches_per_cell_reads(self, data):
        shape = data.draw(st.sampled_from(
            ["stream", "from_values", "view", "take", "take_of_take"]))
        values = data.draw(st.lists(prefix_cells, min_size=1, max_size=12))
        length = data.draw(st.none() | st.integers(0, 12))
        counts = data.draw(st.tuples(st.integers(0, 14), st.integers(0, 14)))
        override = data.draw(st.booleans())
        # Earlier reads leave the prefix partly cached: (through the base?, index).
        earlier = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, 16)), max_size=6))

        def build():
            log = []

            def compute(i):
                log.append(("compute", i))
                return values[i % len(values)]

            base = (_LoggedAt if override else NumStream)(compute, length)
            if override:
                base.log = log
            stream = {"stream": lambda: base,
                      "from_values": lambda: from_values(values),
                      "view": lambda: streams._View(base, length),
                      "take": lambda: take(base, counts[0]),
                      "take_of_take": lambda: take(take(base, counts[0]), counts[1])}[shape]()
            return base, stream, log

        def run(read):
            base, stream, log = build()
            views = [stream] if isinstance(stream, streams._View) else []
            if shape == "take_of_take":
                views.append(stream._source)
            for through_base, i in earlier:
                (base if through_base else stream).at(i)
            cells = read(stream)
            return [(type(c), c) for c in cells], log, [v.highest for v in views]

        extent = build()[1].length
        n = data.draw(st.integers(0, 14 if extent is None else extent + 2))
        end = n if extent is None else min(n, extent)
        per_cell = run(lambda s: [s.at(i) for i in range(end)])
        assert run(lambda s: s.prefix(n)) == per_cell
        event(f"{shape}, {len(per_cell[0])} cells")

    def test_view_reads_its_prefix_in_one_call(self):
        class LoggedPrefix(NumStream):
            def prefix(self, n):
                prefixes.append(n)
                return super().prefix(n)

        prefixes = []
        src = LoggedPrefix(F)
        src.at(4), src.at(7)
        view = take(src, 10)
        assert view.prefix(12) == [F(i) for i in range(10)]
        assert prefixes == [10] and view.highest == 9
        # A partial sum from nothing reads its terms in one call; one from the
        # cell below reads its own term by `at`.
        prefixes.clear()
        sums = partial_sums(src)
        assert sums.at(99) == sum(range(100)) and prefixes == [100]
        assert sums.at(100) == sum(range(101)) and prefixes == [100]


class TestConcurrency:
    def test_concurrent_reads_agree(self):
        src = from_function(lambda i: F(i * i + 1, i + 1))
        sums = partial_sums(src)
        results = []

        def reader():
            results.append([sums.at(i) for i in range(40)])

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)

    def test_cell_cache_is_write_once(self):
        s, calls = counting_source([F(1), F(2)])
        outs = []

        def reader():
            outs.append(s.at(1))

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert set(outs) == {F(2)}


# Undefined terms of every reason, a propagated one included.
UNDEFINED_TERMS = [Undefined(reason) for reason in UndefinedReason] + [
    Undefined(UndefinedReason.PROPAGATED_FROM_INPUT, UndefinedReason.DIV_BY_ZERO),
]


def seeded_term(seed: int, i: int, undefined_rate: float):
    rng = random.Random(seed * 1_000_003 + i)
    if rng.random() < undefined_rate:
        return rng.choice(UNDEFINED_TERMS)
    return F(rng.randint(-60, 60), rng.randint(1, 40) * rng.choice((1, 3, 7, 2 ** 20)))


def seeded_terms(seed: int, n: int):
    """n seeded terms: no undefined ones, a few, term 0 undefined, or many."""
    rate = (0, 0.004, 0.02, 0.2)[seed % 4]
    values = [seeded_term(seed, i, rate) for i in range(n)]
    if seed % 7 == 3:
        values[0] = UNDEFINED_TERMS[seed % len(UNDEFINED_TERMS)]
    return values


def expected_sums(values):
    """The oracle's sums with each undefined cell's reason and cause.

    The first undefined term poisons its own cell and every later cell;
    cell 0 is then the term itself, every other cell is propagated from
    it and keeps its cause.
    """
    sums = oracles.partial_sums_list([v if is_defined(v) else None for v in values])
    first = next((v for v in values if not is_defined(v)), None)
    poisoned = Undefined(UndefinedReason.PROPAGATED_FROM_INPUT, first.cause) if first else None
    return [
        s if s is not None else (values[0] if i == 0 else poisoned)
        for i, s in enumerate(sums)
    ]


def read_orders(rng: random.Random, n: int):
    forward = list(range(n))
    scattered = rng.sample(forward, n // 3) + [n - 1, 0, n // 2]
    shuffled = forward[:]
    rng.shuffle(shuffled)
    return {
        "forward": forward,
        "backward": forward[::-1],
        "random": shuffled,
        "scattered": scattered,
        "last-then-down": [i for i in (n - 1, n - 3, n - 2, *range(n // 2, n // 2 - 5, -1))
                           if i >= 0],
    }


def assert_cell(got, want, where):
    assert type(got) is type(want), where
    assert got == want, where  # for Undefined: reason and cause


class TestPartialSumsDifferential:
    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("infinite", [False, True], ids=["finite", "infinite"])
    def test_every_read_order_matches_the_oracle(self, seed, infinite):
        rng = random.Random(seed)
        n = rng.choice((1, 2, 3, 9, 70, 400))
        values = seeded_terms(seed, n)
        want = expected_sums(values)
        for name, order in read_orders(rng, n).items():
            forced = []

            def term(i):
                forced.append(i)
                return values[i]  # a term past n is never forced: IndexError

            sums = partial_sums(NumStream(term, None if infinite else n))
            assert sums.length == (None if infinite else n)
            highest = -1
            for i in order:
                assert_cell(sums.at(i), want[i], (name, i))
                highest = max(highest, i)
                # Exactly the terms up to the highest cell read so far.
                assert sorted(forced) == list(range(highest + 1)), (name, i)

    def test_long_gaps_either_side_of_a_known_cell(self):
        values = [F(1, 2 * i + 1) * (-1) ** i for i in range(3000)]
        want = oracles.partial_sums_list(values)
        sums = partial_sums(from_values(values))
        for i in (1500, 2999, 2998, 10, 1499, 1501, 2000, 0, 2500):
            assert sums.at(i) == want[i], i

    def test_each_read_steps_from_a_cached_neighbour(self):
        reads = []

        class Terms(NumStream):
            def at(self, i):
                reads.append(i)
                return super().at(i)

        def read(sums, i):
            reads.clear()
            cell = sums.at(i)
            return cell, sorted(reads)

        values = [F((-1) ** i, 2 * i + 1) for i in range(1000)]
        sums = partial_sums(Terms(values.__getitem__, len(values)))
        want = oracles.partial_sums_list(values)
        # (cell, terms read): from nothing, then down from the cell above
        # (less its term), from nothing again, and up from the cell below.
        for i, expected_reads in [(999, range(1000)), (998, [999]), (997, [998]),
                                  (600, range(601)), (601, [601])]:
            assert read(sums, i) == (want[i], list(expected_reads)), i

        # Below a poisoned cell whose own term is defined: one term read.
        div0 = Undefined(UndefinedReason.DIV_BY_ZERO)
        values = [F(1, i + 1) for i in range(10)]
        values[5] = div0
        sums = partial_sums(Terms(values.__getitem__, len(values)))
        read(sums, 9)
        cell, terms_read = read(sums, 8)
        assert terms_read == [9]
        assert_cell(cell, Undefined(UndefinedReason.PROPAGATED_FROM_INPUT, div0.cause), 8)

        # Cell 0 is term 0 itself, also after cell 1 was read.
        values = [div0, F(1)]
        sums = partial_sums(Terms(values.__getitem__, len(values)))
        assert_cell(sums.at(1), Undefined(UndefinedReason.PROPAGATED_FROM_INPUT, div0.cause), 1)
        assert_cell(sums.at(0), div0, 0)

    def test_read_sums_are_freed_without_the_cycle_collector(self):
        # The cells are read through the cache, not the stream, so no
        # reference cycle keeps a stream and its cache alive.
        gc.collect()
        gc.disable()
        try:
            sums = partial_sums(from_values([1, 2, 3]))
            sums.at(2), sums.at(1)
            del sums
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_read_catalan_cells_are_freed_without_the_cycle_collector(self):
        # A Catalan cell steps from a neighbour read through the cache, not
        # the stream, so no reference cycle keeps the stream alive.
        gc.collect()
        gc.disable()
        try:
            cells = catalan_stream()
            cells.at(800), cells.at(799)
            del cells
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_cell_above_an_undefined_cell_is_not_a_start(self):
        u = Undefined(UndefinedReason.INDETERMINATE_ZERO_OVER_ZERO)
        values = [F(1), F(2), u, F(4), F(5)]
        sums = partial_sums(from_values(values))
        assert sums.at(4) == Undefined(UndefinedReason.PROPAGATED_FROM_INPUT, u.cause)
        assert sums.at(3) == Undefined(UndefinedReason.PROPAGATED_FROM_INPUT, u.cause)
        assert sums.at(1) == F(3)
        assert sums.at(2) == Undefined(UndefinedReason.PROPAGATED_FROM_INPUT, u.cause)


def sums_agree_with_oracle(values, reads):
    sums = partial_sums(from_values(values))
    want = oracles.partial_sums_list(values)
    for i in reads:
        assert sums.at(i) == want[i], i


class TestPartialSumsRuns:
    """Gap sums halve down to leaves of up to 64 terms, which fold
    small-denominator terms with no gcd."""

    @pytest.mark.parametrize("gap", [1, 15, 16, 17, 33, 63, 64, 65, 129, 1000])
    def test_gap_lengths_match_the_oracle(self, gap):
        rng = random.Random(gap)
        values = [F(rng.randint(-9, 9), rng.choice((1, 3, 2 ** 31 + 11, 2 ** 40 + 1, 2 ** 64)))
                  for _ in range(3 * gap)]
        # Sums of 3, 2 and 1 gaps, each from nothing (at gap 1 the last two
        # step down from the cell above).
        sums_agree_with_oracle(values, [3 * gap - 1, 2 * gap - 1, gap - 1])

    @pytest.mark.parametrize("q", [2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1])
    def test_denominators_at_the_run_gate(self, q):
        values = [F(i % 5 - 2, q if i % 3 else 2 * i + 1) for i in range(70)]
        sums_agree_with_oracle(values, [69, 20, 35])
        sums_agree_with_oracle([F(1, q)] * 40, [39, 16])

    @pytest.mark.parametrize("values", [
        [F(i, 7) for i in range(-50, 50)],
        [F(0)] * 40,
        [F(0) if i % 4 else F(1, i + 1) for i in range(60)],
        [F(1, factorial(i)) for i in range(300)],
        [F(1, 2 ** i) for i in range(300)],
    ], ids=["equal-denominators", "zeros", "some-zeros", "inverse-factorials", "powers-of-half"])
    def test_series_match_the_oracle(self, values):
        sums_agree_with_oracle(values, [len(values) - 1, 17, 16, 0, len(values) // 2])

    @pytest.mark.parametrize("seed", range(40))
    def test_exact_sum_is_the_sequential_sum_or_the_first_undefined(self, seed):
        rng = random.Random(seed)
        def denominator():  # below, at and above the 2**32 gate
            return rng.choice((rng.randint(1, 60), 2 ** 31 + 11, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
                               3 ** 40, 2 ** 64 + rng.randint(0, 9)))

        values = [F(rng.randint(-10 ** 12, 10 ** 12), denominator())
                  for _ in range(rng.randint(1, 400))]
        want = sum(values, F(0))
        got = streams._exact_sum(values)
        assert type(got) is Fraction and got == want
        if seed % 2:  # undefined terms at random positions: the first one is the sum
            for _ in range(rng.randint(1, 3)):
                values[rng.randrange(len(values))] = rng.choice(UNDEFINED_TERMS)
            first = next(v for v in values if not is_defined(v))
            assert streams._exact_sum(values) is first

    def test_int_terms_sum_as_fractions(self):
        # A function's terms need not be Fractions: `from_function` makes each
        # one an Element, whose slots the leaves read.
        total = partial_sums(from_function(lambda i: i, 100)).at(99)
        assert type(total) is Fraction and total == 4950
        with pytest.raises(TypeError, match="not an Element"):  # `NumStream` does not coerce
            partial_sums(NumStream(lambda i: i, 100)).at(99)

    def test_runs_are_gated_on_denominator_size(self, monkeypatch):
        # Ungated leaves of 1/i! multiply unreduced factorials: the largest gcd
        # operand grows many times the result's denominator (and the sum ~100x slower).
        largest = 0
        gcd = streams.gcd

        def spy(a, b):
            nonlocal largest
            largest = max(largest, a.bit_length(), b.bit_length())
            return gcd(a, b)

        monkeypatch.setattr(streams, "gcd", spy)
        total = partial_sums(from_values(F(1, factorial(i)) for i in range(1500))).at(1499)
        assert 0 < largest <= 2 * total.denominator.bit_length()


class TestNestingDepth:
    """A cold read recurses through every stage, so its depth is bounded.

    Past the interpreter's recursion limit the read raises RecursionError;
    the same pipeline read stage by stage from the bottom up answers.
    """

    # Cell 1 of `depth` stages over the ones.
    @pytest.mark.parametrize("stage,want", [
        (lambda s: take(s, 5), lambda depth: 1),
        (partial_sums, lambda depth: depth + 1),
    ], ids=["take", "partial_sums"])
    def test_past_the_recursion_limit_raises_and_bottom_up_answers(self, stage, want):
        depth = sys.getrecursionlimit()  # every stage adds at least one frame
        stages = [iota(1, 0)]
        for _ in range(depth):
            stages.append(stage(stages[-1]))
        with pytest.raises(RecursionError):
            stages[-1].at(1)
        for s in stages:
            s.at(1)
        assert stages[-1].at(1) == want(depth)


class TestPartialSumsConcurrency:
    @pytest.mark.parametrize("seed", [5, 10, 11])
    def test_concurrent_readers_agree_with_oracle(self, seed):
        values = seeded_terms(seed, 300)
        want = expected_sums(values)
        forced = []

        def term(i):
            forced.append(i)
            return values[i]

        sums = partial_sums(NumStream(term, len(values)))
        start = threading.Barrier(8)
        seen = {}

        def read(reader: int) -> None:
            order = range(len(want))
            start.wait(timeout=60)
            cells = {i: sums.at(i) for i in (order if reader % 2 else reversed(order))}
            seen[reader] = [cells[i] for i in order]

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
        assert sorted(forced) == list(range(len(values)))
