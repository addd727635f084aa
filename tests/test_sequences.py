import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest

from seqaccel import (
    BUILTIN_SEQUENCES,
    Kind,
    Method,
    SequenceParseError,
    TransformSpec,
    Undefined,
    UndefinedReason,
    alternating_naturals_terms,
    catalan_stream,
    grandi_terms,
    growth_coefficient,
    last_defined,
    leibniz_pi4_terms,
    load_sequence,
    open_source,
    parse_scalar,
    partial_sums,
    plain_lambda_terms_stream,
    sum_series,
    take,
)

import oracles
from conftest import LONG_LITERALS

F = Fraction

# Frozen prefix of OEIS A114851, independent of the generator under test.
A114851_PREFIX = [0, 0, 1, 1, 2, 2, 4, 5, 10, 14, 27, 41, 78, 126]


class TestCatalan:
    def test_prefix(self):
        assert catalan_stream().prefix(7) == [1, 1, 2, 5, 14, 42, 132]

    def test_tenth_number_against_recurrence_oracle(self):
        assert catalan_stream().at(10) == oracles.catalan_list(11)[10]
        assert catalan_stream().at(10) == 16796

    def test_ratio_identity(self):
        s = catalan_stream()
        for n in range(51):
            assert s.at(n + 1) * (n + 2) == s.at(n) * (4 * n + 2)

    def test_closed_form_to_2000(self):
        # A prefix read takes only cell 0 from the closed form and steps up
        # from there, so cells 1..2000 are checked against the closed form
        # they were not computed by.
        got = catalan_stream().prefix(2001)
        assert got == [math.comb(2 * n, n) // (n + 1) for n in range(2001)]

    def test_cold_reads_match_the_convolution(self):
        want = oracles.catalan_list(601)
        for n in [0, 1, 600, *random.Random(16).sample(range(601), 30)]:
            assert catalan_stream().at(n) == want[n]

    def test_cold_reads_match_the_binomial(self):
        # A cold cell is built from prime powers; 2n next to a prime square
        # puts a prime on either side of the sqrt(2n) cut.
        squares = [p * p for p in range(2, 100) if all(p % d for d in range(2, p))]
        near_squares = {(sq + d) // 2 for sq in squares for d in range(-2, 3) if (sq + d) % 2 == 0}
        seeded = random.Random(31).sample(range(700, 50_001), 20)
        for n in sorted({*range(701), *near_squares, *seeded}):
            assert catalan_stream().at(n) == math.comb(2 * n, n) // (n + 1), n

    @pytest.mark.parametrize("order", ["random", "descending", "strided"])
    def test_any_read_order_matches_the_product_recurrence(self, order):
        # Cold cells come from the binomial, cells next to a known one by a
        # step up or down; a random order mixes all three.
        want = [1]
        for n in range(1, 3001):
            want.append(want[-1] * 2 * (2 * n - 1) // (n + 1))
        indices = list(range(3001))
        if order == "random":
            random.Random(3).shuffle(indices)
        elif order == "descending":
            indices.reverse()
        else:
            indices = [i for stride in (997, 89, 7, 1) for i in range(stride // 2, 3001, stride)]
        s = catalan_stream()
        for i in indices:
            assert s.at(i) == want[i], i

    def test_a_growth_run_keeps_only_the_cells_near_n(self):
        # Only the cells near n are kept; every C[n] below 20,000 would take ~50 MB.
        tracemalloc.start()
        try:
            report = growth_coefficient(TransformSpec(Method.LEVIN, Kind.U, 2),
                                        catalan_stream(), 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.rendered == "4.000000000"
        assert report.terms_used == 20000
        assert peak < 2_000_000

    def test_purity(self):
        a, b = catalan_stream(), catalan_stream()
        assert a.prefix(30) == b.prefix(30)


class TestPlainLambdaTerms:
    def test_prefix(self):
        assert plain_lambda_terms_stream().prefix(8) == [0, 0, 1, 1, 2, 2, 4, 5]

    def test_against_recurrence_oracle_and_oeis(self):
        s = plain_lambda_terms_stream()
        assert s.at(9) == oracles.plain_lambda_list(10)[9]
        assert s.prefix(len(A114851_PREFIX)) == A114851_PREFIX

    def test_recurrence_holds_at_random_indices(self):
        s = plain_lambda_terms_stream()
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(0, 500)
            convolution = sum(s.at(k) * s.at(n - k) for k in range(n + 1))
            assert s.at(n + 2) == 1 + s.at(n) + convolution

    def test_resumed_walks_match_the_oracle(self):
        # Each read past the list's end seeds the recurrence from its last six counts.
        want = oracles.plain_lambda_list(1201)
        s = plain_lambda_terms_stream()
        for n in (7, 6, 300, 1200):
            assert s.at(n) == want[n], n

    def test_against_convolution_oracle_to_1200(self):
        assert plain_lambda_terms_stream().prefix(1200) == oracles.plain_lambda_list(1200)

    def test_growth_digit_band_at_300(self):
        count = plain_lambda_terms_stream().at(300)
        digits = len(str(count.numerator))
        assert 85 <= digits <= 95

    def test_purity(self):
        a, b = plain_lambda_terms_stream(), plain_lambda_terms_stream()
        assert a.prefix(40) == b.prefix(40)


class TestDivergentSeriesTerms:
    def test_grandi_prefix(self):
        assert grandi_terms().prefix(4) == [1, -1, 1, -1]

    def test_grandi_partial_sums(self):
        assert partial_sums(grandi_terms()).prefix(4) == [1, 0, 1, 0]

    def test_grandi_parity(self):
        s = grandi_terms()
        for k in range(8):
            assert s.at(2 * k) == 1
            assert s.at(2 * k + 1) == -1

    def test_alternating_naturals_prefix(self):
        assert alternating_naturals_terms().prefix(6) == [0, 1, -2, 3, -4, 5]

    def test_alternating_naturals_partial_sums(self):
        out = partial_sums(alternating_naturals_terms()).prefix(6)
        assert out == [0, 1, -1, 2, -2, 3]

    def test_alternating_naturals_parity_rule(self):
        assert alternating_naturals_terms().at(100) == -100
        assert alternating_naturals_terms().at(101) == 101


class TestLeibnizTerms:
    def test_prefix(self):
        assert leibniz_pi4_terms().prefix(3) == [1, F(-1, 3), F(1, 5)]

    def test_partial_sums(self):
        assert partial_sums(leibniz_pi4_terms()).prefix(3) == [1, F(2, 3), F(13, 15)]

    def test_cells_are_the_reduced_fraction(self):
        # Cells are built without a gcd; each must be Fraction's own reduced form.
        terms = leibniz_pi4_terms()
        for i in range(20_000):
            cell, want = terms.at(i), F((-1) ** i, 2 * i + 1)
            assert type(cell) is Fraction and cell == want, i
            assert hash(cell) == hash(want), i
            assert cell.as_integer_ratio() == want.as_integer_ratio(), i

    def test_long_partial_sums_match_oracle(self):
        want = oracles.partial_sums_list([F((-1) ** i, 2 * i + 1) for i in range(6400)])
        sums = partial_sums(leibniz_pi4_terms())
        for i in (799, 6399):
            assert sums.at(i) == want[i], i

    @pytest.mark.parametrize("n", [800, 6400])
    def test_sum_series_reads_n_terms(self, n):
        report = sum_series(TransformSpec(Method.LEVIN, Kind.U, 2), leibniz_pi4_terms(), n)
        assert report.terms_used == n

    def test_limit_is_pi_quarter(self):
        # Alternating series: |S_n - limit| is below the first omitted term.
        reference = oracles.pi_quarter_reference()
        sums = partial_sums(leibniz_pi4_terms())
        for n in (10, 50, 200):
            assert abs(sums.at(n - 1) - reference) < F(1, 2 * n + 1)


class TestSharedRecurrence:
    @pytest.mark.parametrize("make,oracle", [
        (catalan_stream, oracles.catalan_list),
        (plain_lambda_terms_stream, oracles.plain_lambda_list),
    ], ids=["catalan", "plain-lambda"])
    def test_concurrent_readers_agree_with_oracle(self, make, oracle):
        want = oracle(120)
        stream = make()
        start = threading.Barrier(8)
        seen = {}

        def read(reader: int) -> None:
            order = range(len(want))
            start.wait(timeout=60)
            cells = {i: stream.at(i) for i in (order if reader % 2 else reversed(order))}
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


class TestRegistryAndSources:
    def test_registry_names(self):
        assert set(BUILTIN_SEQUENCES) == {
            "catalan",
            "plain-lambda",
            "grandi-terms",
            "alt-naturals",
            "leibniz-pi4-terms",
        }

    def test_open_builtin(self):
        s = open_source("catalan")
        assert s.at(3) == 5

    def test_open_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            open_source("fibonacci")


class TestLoadSequence:
    def test_integers(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1\n1\n2\n5\n")
        s = load_sequence(path)
        assert s.to_list() == [1, 1, 2, 5]
        assert s.length == 4

    def test_rational_literals(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("3/2\n-7/3\n")
        assert load_sequence(path).to_list() == [F(3, 2), F(-7, 3)]

    def test_decimal_literals_exact(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("0.25\n-1.5\n")
        assert load_sequence(path).to_list() == [F(1, 4), F(-3, 2)]

    def test_long_literals(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("".join(f"{text}  # long\n" for text, _ in LONG_LITERALS))
        assert load_sequence(path).to_list() == [want for _, want in LONG_LITERALS]

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("# header\n1\n\n2 # trailing note\n\n")
        assert load_sequence(path).to_list() == [1, 2]

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "seq.txt"
        for token in ("abc", "undefined(nope)", "undefined()", "Undefined(div-by-zero)",
                      "undefined(div-by-zero) 1"):
            path.write_text(f"1\n2\n{token}\n")
            with pytest.raises(SequenceParseError, match="line 3"):
                load_sequence(path)

    def test_undefined_cells_read_back(self, tmp_path):
        # The form render_decimal prints an undefined cell in, for every cause.
        path = tmp_path / "seq.txt"
        path.write_text("1\n" + "".join(f"undefined({r.value})  # printed\n"
                                       for r in UndefinedReason))
        assert load_sequence(path).to_list() == [1, *map(Undefined, UndefinedReason)]
        with pytest.raises(ValueError):  # a file line, not a scalar literal
            parse_scalar("undefined(div-by-zero)")

    def test_zero_denominator_is_parse_error(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1/0\n")
        with pytest.raises(SequenceParseError, match="line 1"):
            load_sequence(path)

    def test_empty_file_is_empty_stream(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("")
        s = load_sequence(path)
        assert s.length == 0
        out = last_defined(s)
        assert isinstance(out, Undefined)
        assert out.reason is UndefinedReason.OUT_OF_RANGE

    def test_loaded_stream_is_finite(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("4\n")
        s = load_sequence(path)
        assert isinstance(take(s, 10).at(3), Undefined)
