import copy
import decimal
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from seqaccel.scalars import (
    Undefined,
    UndefinedReason,
    _expansion,
    add,
    as_element,
    div,
    is_defined,
    mul,
    parse_scalar,
    propagated,
    render_decimal,
    sub,
)
from seqaccel.sequences import leibniz_pi4_terms
from seqaccel.streams import _exact_sum, from_values, iota

from conftest import LONG_LITERALS

F = Fraction

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)
nonzero_rationals = rationals.filter(lambda x: x != 0)


class TestArithmetic:
    def test_exact_addition(self):
        assert add(F(1, 3), F(1, 6)) == F(1, 2)

    def test_div_by_zero(self):
        out = div(F(5), F(0))
        assert isinstance(out, Undefined)
        assert out.reason is UndefinedReason.DIV_BY_ZERO

    def test_zero_over_zero(self):
        out = div(F(0), F(0))
        assert isinstance(out, Undefined)
        assert out.reason is UndefinedReason.INDETERMINATE_ZERO_OVER_ZERO

    @pytest.mark.parametrize("op,a,b,want", [
        (add, F(1, 2), F(1, 3), F(5, 6)),
        (sub, F(1, 2), F(1, 3), F(1, 6)),
        (mul, F(2, 3), F(3, 4), F(1, 2)),
        (div, F(2, 3), F(3, 4), F(8, 9)),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_dispatch_table(self, op, a, b, want):
        assert op(a, b) == want

    def test_propagation_keeps_first_cause(self):
        u = div(F(5), F(0))
        for op in (add, sub, mul, div):
            out = op(u, F(3))
            assert isinstance(out, Undefined)
            assert out.reason is UndefinedReason.PROPAGATED_FROM_INPUT
            assert out.cause is UndefinedReason.DIV_BY_ZERO

    def test_first_operand_cause_wins(self):
        left = div(F(0), F(0))
        right = div(F(1), F(0))
        out = add(left, right)
        assert out.cause is UndefinedReason.INDETERMINATE_ZERO_OVER_ZERO

    def test_cause_survives_chained_propagation(self):
        u = propagated(div(F(1), F(0)))
        for _ in range(3):
            u = mul(u, F(7))
        assert u.cause is UndefinedReason.DIV_BY_ZERO

    def test_undefined_never_equals_defined(self):
        u = div(F(1), F(0))
        assert u != F(1)
        assert F(1) != u
        assert not (u == F(0))

    @given(a=rationals, b=rationals, c=rationals)
    def test_field_axioms(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)

    @given(a=nonzero_rationals)
    def test_multiplicative_inverse(self, a):
        assert mul(a, div(F(1), a)) == F(1)

    @given(a=rationals, b=rationals)
    def test_canonical_form(self, a, b):
        import math
        for op in (add, sub, mul):
            out = op(a, b)
            assert out.denominator > 0
            assert math.gcd(abs(out.numerator), out.denominator) == 1

    @given(a=rationals, b=rationals)
    def test_undefined_absorbs(self, a, b):
        u = Undefined(UndefinedReason.DIV_BY_ZERO)
        for op in (add, sub, mul, div):
            assert isinstance(op(u, a), Undefined)
            assert isinstance(op(b, u), Undefined)


class TestRenderDecimal:
    @pytest.mark.parametrize("value,digits,want", [
        (F(1, 2), 5, "0.50000"),
        (F(1, 3), 5, "0.33333"),
        (F(2, 3), 4, "0.6667"),
        (F(-1, 3), 5, "-0.33333"),
        (F(4), 10, "4.000000000"),
        (F(1024), 4, "1024"),
        (F(12345, 10), 6, "1234.50"),
        (F(0), 5, "0.0000"),
        (F(0), 1, "0"),
        (F(1, 10 ** 7), 5, "1.0000e-7"),
        (F(1024), 2, "1.0e3"),
    ])
    def test_formatting(self, value, digits, want):
        assert render_decimal(value, digits) == want

    def test_round_half_to_even(self):
        assert render_decimal(F(125, 1000), 2) == "0.12"
        assert render_decimal(F(135, 1000), 2) == "0.14"

    def test_rounding_rollover(self):
        assert render_decimal(F(99996, 100000), 4) == "1.000"

    def test_undefined_rendering(self):
        assert render_decimal(div(F(1), F(0)), 5) == "undefined(div-by-zero)"
        u = mul(div(F(1), F(0)), F(2))
        assert render_decimal(u, 3) == "undefined(div-by-zero)"

    @pytest.mark.parametrize("value,digits,want", [
        (7, 3, "7.00"),
        (-7, 1, "-7"),
        (0, 1, "0"),
        (0, 4, "0.000"),
        ("-0.00", 1, "0"),
        ("-0/5", 3, "0.00"),
        ("0e5", 1, "0"),
        ("-1/3", 3, "-0.333"),
        ("2.5E-7", 2, "2.5e-7"),
        (F(-99996, 100000), 4, "-1.000"),
        (F(-1, 10 ** 7), 2, "-1.0e-7"),
        (F(-1024), 2, "-1.0e3"),
        (F(-5, 10), 1, "-0.5"),
        (F(-96, 10), 1, "-1e1"),
    ])
    def test_int_str_zero_and_negative_inputs(self, value, digits, want):
        # An int or a string is read as `as_element` reads it; a zero of any
        # sign renders unsigned.
        assert render_decimal(value, digits) == want

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_rejected(self, value):
        with pytest.raises(TypeError, match="^bool is not a scalar$"):
            render_decimal(value, 3)

    def test_bad_digit_count_rejected(self):
        with pytest.raises(ValueError):
            render_decimal(F(1), 0)

    @given(a=nonzero_rationals, digits=st.integers(min_value=1, max_value=12))
    def test_roundtrip_error_bound(self, a, digits):
        text = render_decimal(a, digits)
        parsed = F(text)
        assert abs(parsed - a) < F(10) ** (1 - digits) * abs(a)

    @given(a=rationals, digits=st.integers(min_value=1, max_value=12),
           scale=st.integers(min_value=-12, max_value=12) | st.integers(-40_000, 40_000))
    @example(a=F(1024), scale=0, digits=2)  # "1.0e3"
    @example(a=F(-1, 3), scale=-7, digits=5)  # "-3.3333e-8"
    @example(a=F(2, 3), scale=0, digits=4)  # "0.6667"
    def test_parse_reads_render_back(self, a, scale, digits):
        x = a * F(10) ** scale
        assert parse_scalar(render_decimal(x, digits)) == _rounded(x, digits)

    def test_long_values_read_back(self):
        for n, x in enumerate(_ilog10_cases()):
            digits = (1, 7, 40)[n % 3]
            assert parse_scalar(render_decimal(x, digits)) == _rounded(x, digits)

    def test_mantissas_past_the_digit_limit_read_back(self):
        rng = random.Random(4301)
        notations = set()
        for digits in (4301, 6000, 8000, 9000):
            x = F(rng.randrange(10 ** 20), rng.randrange(1, 10 ** 9)) + 1
            for scale in (0, -3, -9, digits + 7):
                value = x * F(10) ** scale
                text = render_decimal(value, digits)
                notations.add("e" in text)
                assert len(text.split("e")[0].replace(".", "").lstrip("0")) == digits
                assert parse_scalar(text) == _rounded(value, digits)
        assert notations == {False, True}


def _rounded(x: Fraction, digits: int) -> Fraction:
    """x to `digits` significant digits, ties to even: the decimal module's
    division is correctly rounded."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = digits, decimal.ROUND_HALF_EVEN
        return F(decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator))


def _ilog10_cases():
    """Seeded rationals of 1 to 40,000 digits, powers of ten and 10^k ± 1."""
    rng = random.Random(4300)
    cases = []
    for digits in (1, 2, 15, 300, 4299, 4300, 4301, 6000, 12_000, 40_000):
        for _ in range(3):
            p = rng.randrange(10 ** (digits - 1), 10 ** digits)
            q = rng.randrange(10 ** (rng.randint(1, digits) - 1), 10 ** digits)
            cases += [F(p, q), F(-q, p), F(p)]
    for k in (0, 1, 9, 4300, 4301, 40_000):
        for near in (-1, 0, 1):
            if 10 ** k + near:
                cases += [F(10 ** k + near), F(1, 10 ** k + near)]
    return cases


class TestIlog10:
    def test_brackets_every_case_exactly(self):
        for i, value in enumerate(_ilog10_cases()):
            e = _expansion(value, 1 + i % 41)[0]
            assert F(10) ** e <= abs(value) < F(10) ** (e + 1), (value.numerator.bit_length(), e)

    def test_powers_of_ten_are_exact(self):
        for k in (1, 4300, 40_000):
            assert _expansion(F(10 ** k), 1)[0] == k
            assert _expansion(F(1, 10 ** k), 1)[0] == -k
            assert _expansion(F(10 ** k - 1), 1)[0] == k - 1
            assert _expansion(F(1, 10 ** k + 1), 1)[0] == -k - 1

    @pytest.mark.parametrize("value,n,want", [
        # floor((bits p - bits q)·log10 2) is 0 for 4/5, 1 and 10, and 1 for 64/7:
        # above, at, below and above the exponent, before the margin.
        (F(4, 5), 3, (-1, "8000", 1)),
        (F(1), 2, (0, "100", 1)),
        (F(10), 1, (1, "10", 1)),
        (F(64, 7), 1, (0, "91", 3)),
        (F(-4, 5), 1, (-1, "80", 1)),
        (F(10), 4, (1, "10000", 1)),
        (F(9, 7), 1, (0, "12", 3)),  # 1.2857...: more nonzero digits follow
        (F(1, 3), 1, (-1, "33", 3)),
        (F(1001, 1000), 2, (0, "100", 4)),  # 1.001: the first nonzero digit past n + 1
        (F(10 ** 20 - 1), 2, (19, "999", 4)),
    ])
    def test_guess_above_at_and_below_the_exponent(self, value, n, want):
        assert _expansion(value, n) == want

    def test_every_case_has_n_plus_one_exact_digits(self):
        for i, value in enumerate(_ilog10_cases()):
            n = 1 + i % 41
            e, digits, end = _expansion(value, n)
            assert len(digits) == n + 1 and digits[0] != "0"
            low = parse_scalar(digits) * F(10) ** (e - n)
            assert low <= abs(value) < low + F(10) ** (e - n)
            exact = low == abs(value)
            assert end == (len(digits.rstrip("0")) if exact else n + 2)

    def test_render_past_the_digit_limit(self):
        # Numerator and denominator have over 10,000 digits each.
        third = F(10 ** 10_000 + 1, 3 * 10 ** 10_000)
        assert render_decimal(third, 6) == "0.333333"
        # 20,000 log10(7) = 16901.9608..., and 10^0.9608 = 9.137...
        assert render_decimal(F(7) ** 20_000, 3) == "9.14e16901"


class TestParseScalar:
    @pytest.mark.parametrize("text,want", [
        ("3/2", F(3, 2)),
        ("7", F(7)),
        ("-5", F(-5)),
        ("+4/6", F(2, 3)),
        ("0.25", F(1, 4)),
        ("-1.5", F(-3, 2)),
        (" 12 ", F(12)),
        ("1.0e3", F(1000)),
        ("-2.5E-7", F(-1, 4_000_000)),
        ("+7e+02", F(700)),
        ("1e00000000000005", F(100_000)),
    ])
    def test_accepted(self, text, want):
        assert parse_scalar(text) == want

    @pytest.mark.parametrize("text", ["abc", "1/2/3", "1.2.3", "1e", "", "/2", "2/", "1 2"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_scalar(text)

    def test_exponent_is_bounded(self):
        assert parse_scalar("1e100000") == 10 ** 100_000
        assert parse_scalar("-1e-100000") == F(-1, 10 ** 100_000)
        # Rejected before any power of ten is built, whatever the length.
        for text in ("1e100001", "2.5e-100001", "1e999999999", "1e" + "9" * 5000):
            with pytest.raises(ValueError, match="exponent out of range"):
                parse_scalar(text)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="denominator"):
            parse_scalar("1/0")

    @pytest.mark.parametrize("text,want", LONG_LITERALS, ids=["int", "int-8001", "p/q", "decimal"])
    def test_long_literals(self, text, want):
        assert parse_scalar(text) == want

    def test_defined_predicate(self):
        assert is_defined(F(1))
        assert not is_defined(Undefined(UndefinedReason.OUT_OF_RANGE))


# Small ints, and ints of 10,001-10,100 bits: past 10,000 bits but still
# under the 4300-digit int-to-str limit, so str() and repr() work.
contract_ints = st.one_of(
    st.integers(-1000, 1000),
    st.builds(lambda bits, low, sign: sign * (2 ** bits + low),
              st.integers(10_000, 10_099), st.integers(0, 2 ** 64), st.sampled_from([1, -1])),
)


@st.composite
def coprime_pairs(draw):
    """(n, d) with gcd(n, d) = 1 and d > 0, as Fraction(a, b) reduces a/b."""
    a, b = draw(contract_ints), draw(contract_ints.filter(lambda x: x != 0))
    g = math.gcd(a, b) * (1 if b > 0 else -1)
    return a // g, b // g


class TestFractionSlots:
    """Leibniz terms write Fraction's private slots, and `_exact_sum` reads them.

    Each term is `Fraction((-1)^i, 2i + 1)` built without the gcd, and
    `_exact_sum` reads any Fraction's numerator and denominator off its
    slots. This runs on every Python the package supports and fails if a
    version renames them.
    """

    @given(i=st.integers(0, 2 ** 70),
           other=st.one_of(contract_ints, coprime_pairs().map(lambda p: F(*p))))
    @example(i=0, other=0)
    @example(i=1, other=-7)
    @example(i=2 ** 10_049, other=F(3 ** 6_400, 2 ** 10_050))
    def test_leibniz_terms_equal_the_reduced_fraction(self, i, other):
        n, d = -1 if i % 2 else 1, 2 * i + 1
        want, got = F(n, d), leibniz_pi4_terms().at(i)
        assert type(got) is Fraction and got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want) and str(got) == str(want)
        assert got.as_integer_ratio() == want.as_integer_ratio() == (n, d)
        for copied in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got), copy.copy(got)):
            assert type(copied) is Fraction and copied == want
            assert copied.as_integer_ratio() == (n, d)
        for op in (operator.add, operator.mul):
            assert op(got, other) == op(want, other) and op(other, got) == op(other, want)
            assert op(got, got) == op(want, want)

    @given(pair=coprime_pairs(), other=coprime_pairs().map(lambda p: F(*p)))
    @example(pair=(0, 1), other=F(0))
    @example(pair=(-7, 1), other=F(1, 2 ** 32))
    @example(pair=(3 ** 6_400, 2 ** 10_050), other=F(-1, 2 ** 10_050 + 1))
    def test_exact_sum_reads_the_reduced_fraction(self, pair, other):
        want = F(*pair)
        for term in (want, pickle.loads(pickle.dumps(want)), copy.deepcopy(want), copy.copy(want)):
            assert _exact_sum([term]).as_integer_ratio() == pair
            assert _exact_sum([term, other]) == want + other
            assert _exact_sum([other, term, term]) == other + 2 * want


class TestAsElement:
    @pytest.mark.parametrize("value,message", [
        (True, "bool is not a scalar"),
        (1.5, "cannot convert float to an Element"),
    ])
    def test_non_scalars_rejected(self, value, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            as_element(value)


class TestStringElements:
    """Strings become scalars through `parse_scalar`: one literal grammar."""

    @pytest.mark.parametrize("text", ["1e5.5", " 1_000 ", ".5", "3.", "nan", "0x10",
                                      "1e+", "e5", "1.e3", "1/2e3", "1e 3"])
    def test_outside_the_grammar_rejected(self, text):
        for coerce in (lambda t: from_values([1, t]), lambda t: iota(t, 1),
                       lambda t: iota(0, t), lambda t: render_decimal(t, 3)):
            with pytest.raises(ValueError, match="invalid numeric literal"):
                coerce(text)

    @pytest.mark.parametrize("text,want", [
        (" -3/4 ", F(-3, 4)),
        ("0.125", F(1, 8)),
        *LONG_LITERALS,
    ], ids=["p/q", "decimal", "long-int", "long-int-8001", "long-p/q", "long-decimal"])
    def test_stream_values(self, text, want):
        assert from_values([text, 1]).to_list() == [want, 1]
        progression = iota(text, text)
        assert [progression.at(i) for i in range(3)] == [want, 2 * want, 3 * want]

    def test_render_long_literal(self):
        # Past 4300 digits, yet the value is small enough to render.
        assert render_decimal("1" + "0" * 5000 + "/2" + "0" * 5000, 3) == "0.500"
        assert render_decimal("0.25" + "0" * 5000, 2) == "0.25"
