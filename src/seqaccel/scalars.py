"""Exact rational scalars with explicit undefined-value propagation.

Every value in this library is an arbitrary-precision rational
(`fractions.Fraction`), so pipelines are bit-reproducible and results
can be compared with exact equality.
Operations that have no rational result (division by zero, reading past
the end of a finite stream) do not raise: they produce an `Undefined`
marker that records why, and any arithmetic touching an `Undefined`
operand yields `Undefined` again with the original cause preserved.
Decimal text appears only at the output boundary, via `render_decimal`.
"""
from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction


class UndefinedReason(Enum):
    """Root causes an undefined cell can carry."""

    DIV_BY_ZERO = "div-by-zero"
    INDETERMINATE_ZERO_OVER_ZERO = "zero-over-zero"
    OUT_OF_RANGE = "out-of-range"
    PROPAGATED_FROM_INPUT = "propagated-from-input"


class Undefined:
    """Marker for a cell with no rational value.

    `reason` says why this particular cell is undefined; `cause` is the
    earliest root cause, preserved unchanged through propagation (first
    cause wins when several operands are undefined). Both are read-only.
    """

    __slots__ = ("reason", "cause")

    def __init__(self, reason: UndefinedReason, cause: UndefinedReason | None = None):
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "cause", reason if cause is None else cause)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")
    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.reason, self.cause) == (other.reason, other.cause)

    def __hash__(self):
        return hash((self.reason, self.cause))

    def __reduce__(self):  # copy and pickle through __init__, as __setattr__ refuses
        return self.__class__, (self.reason, self.cause)

    def __repr__(self):
        if self.reason is self.cause:
            return f"Undefined({self.cause.value})"
        return f"Undefined({self.reason.value}, cause={self.cause.value})"


Element = Fraction | Undefined


def is_defined(e: Element) -> bool:
    return not isinstance(e, Undefined)


def as_element(x) -> Element:
    """Coerce an int, string, Fraction or Undefined into an Element.

    Strings follow the `parse_scalar` grammar, the one used for files.
    """
    if isinstance(x, (Fraction, Undefined)):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot convert {type(x).__name__} to an Element")


def _coprime(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator) with no gcd: the caller ensures they are
    coprime and denominator > 0. It sets Fraction's two `__slots__` (3.10-3.13), as
    Fraction's private fast paths do; with no `__dict__`, a renamed slot raises."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = numerator, denominator
    return f


def propagated(u: Undefined) -> Undefined:
    """Undefined derived from an undefined operand; keeps the root cause."""
    return Undefined(UndefinedReason.PROPAGATED_FROM_INPUT, u.cause)


def first_undefined(*elements: Element) -> Undefined | None:
    """The first undefined operand in argument order, if any."""
    for e in elements:
        if isinstance(e, Undefined):
            return e
    return None


def add(a: Element, b: Element) -> Element:
    u = first_undefined(a, b)
    return propagated(u) if u else a + b


def sub(a: Element, b: Element) -> Element:
    u = first_undefined(a, b)
    return propagated(u) if u else a - b


def mul(a: Element, b: Element) -> Element:
    u = first_undefined(a, b)
    return propagated(u) if u else a * b


def div(a: Element, b: Element) -> Element:
    """Totalized division: 0/0 and x/0 map to Undefined, never raise."""
    u = first_undefined(a, b)
    if u:
        return propagated(u)
    if b == 0:
        if a == 0:
            return Undefined(UndefinedReason.INDETERMINATE_ZERO_OVER_ZERO)
        return Undefined(UndefinedReason.DIV_BY_ZERO)
    return a / b


_SCALAR_RE = re.compile(r"([+-]?)(\d+)(?:/(\d+)|(?:\.(\d+))?(?:[eE]([+-]?)0*(\d+))?)")
_CHUNK = 4000  # digits per int() call: under the interpreter's 4300-digit limit
# Largest |e| in "<decimal>e<e>": 10^e is then at most ~332,000 bits, and a
# hostile exponent is an error instead of a huge power of 10.
_MAX_EXPONENT = 100_000


def _digits_to_int(digits: str) -> int:
    """int(digits) for a digit string of any length, converted in chunks."""
    head = len(digits) % _CHUNK or _CHUNK
    value = int(digits[:head])
    for start in range(head, len(digits), _CHUNK):
        value = value * 10 ** _CHUNK + int(digits[start:start + _CHUNK])
    return value


def _int_to_digits(value: int) -> str:
    """str(value) for a nonnegative int of any length, converted in chunks."""
    if value.bit_length() <= 3 * _CHUNK:  # fewer than _CHUNK digits
        return str(value)
    base, chunks = 10 ** _CHUNK, []
    while value >= base:
        value, low = divmod(value, base)
        chunks.append(f"{low:0{_CHUNK}d}")
    return str(value) + "".join(reversed(chunks))


def parse_scalar(text: str) -> Fraction:
    """Parse an integer, rational "p/q" or decimal literal exactly.

    A decimal may carry an exponent, as `render_decimal` writes it:
    "1.0e3", "-2.5E-7". Literals of any length are accepted; |exponent|
    is at most `_MAX_EXPONENT`. Raises ValueError for anything outside
    that grammar (including a zero denominator).
    """
    token = text.strip()
    match = _SCALAR_RE.fullmatch(token)
    if not match:
        raise ValueError(f"invalid numeric literal: {token!r}")
    sign, whole, den, frac, exp_sign, exp = match.groups()
    frac = frac or ""
    num = _digits_to_int(whole + frac)
    den = _digits_to_int(den) if den else 10 ** len(frac)
    if den == 0:
        raise ValueError(f"zero denominator in literal: {token!r}")
    if exp:
        if len(exp) > len(str(_MAX_EXPONENT)) or int(exp) > _MAX_EXPONENT:
            raise ValueError(f"exponent out of range (|e| <= {_MAX_EXPONENT}) "
                             f"in literal: {token!r}")
        scale = 10 ** int(exp)
        num, den = (num, den * scale) if exp_sign == "-" else (num * scale, den)
    return Fraction(-num if sign == "-" else num, den)


_LOG10_2 = math.log10(2)


def _expansion(value: Fraction, n: int) -> tuple[int, str, int]:
    """floor(log10(|value|)), the first n + 1 significant digits of nonzero
    `value`, and the end of their nonzero digits (past them where more follow)."""
    p, q = abs(value.numerator), value.denominator
    # g <= floor(log10 |value|) = e: one unit of the margin covers |value| >
    # 2^(bits p - bits q - 1), the other the float product's rounding. The quotient
    # then has n + 1 + e - g digits, so its length gives e; the 1 to 3 digits
    # past the first n + 1 only say whether more nonzero digits follow.
    g = math.floor((p.bit_length() - q.bit_length()) * _LOG10_2) - 2
    m, rest = divmod(p * 10 ** (n - g), q) if n >= g else divmod(p, q * 10 ** (g - n))
    digits = _int_to_digits(m)
    head, more = digits[:n + 1], rest or digits[n + 1:].rstrip("0")
    return g + len(digits) - (n + 1), head, n + 2 if more else len(head.rstrip("0"))


def _rounded(expansion: tuple[int, str, int], d: int) -> tuple[int, str]:
    """The exponent and d digits of an `_expansion` of more than d digits, rounded ties to even."""
    e, digits, end = expansion
    c, head = digits[d], digits[:d]
    if c > "5" or c == "5" and (end > d + 1 or head[-1] in "13579"):
        # Carry the one through the trailing 9s; 9...9 rolls over to 10...0.
        kept = head.rstrip("9")
        head = (kept[:-1] + chr(ord(kept[-1]) + 1) if kept else "1").ljust(d, "0")
        e += not kept
    return e, head


def render_decimal(value: Element, sig_digits: int) -> str:
    """Render with exactly `sig_digits` significant digits, ties to even.

    Positional notation is used when the leading digit falls between 1e-4
    and the requested precision; otherwise scientific notation ("1.024e5",
    "3.3333e-7") keeps the digit count honest; `parse_scalar` reads both
    forms back (exponents up to `_MAX_EXPONENT`). Undefined cells become
    "undefined(<cause>)". The decimal separator is always ".".
    """
    return _render(value, sig_digits)


def _render(value: Element, sig_digits: int, expansion: tuple | None = None) -> str:
    """`render_decimal`, given `_expansion(value, sig_digits)` where the caller has it."""
    if sig_digits < 1:
        raise ValueError(f"sig_digits must be >= 1, got {sig_digits}")
    value = as_element(value)
    if isinstance(value, Undefined):
        return f"undefined({value.cause.value})"
    if value == 0:
        return "0" if sig_digits == 1 else "0." + "0" * (sig_digits - 1)

    e, digits = _rounded(expansion or _expansion(value, sig_digits), sig_digits)
    if 0 <= e < sig_digits:
        int_part, frac_part = digits[: e + 1], digits[e + 1 :]
        body = int_part + ("." + frac_part if frac_part else "")
    elif -4 <= e < 0:
        body = "0." + "0" * (-e - 1) + digits
    else:
        mantissa = digits[0] + ("." + digits[1:] if sig_digits > 1 else "")
        body = f"{mantissa}e{e}"
    return ("-" if value < 0 else "") + body
