"""Exact references that the benchmark checks the program's outputs against.

Nothing here converts a large integer to decimal text, so every check
still works on values past Python's 4300-digit int->str limit; the
benchmark never raises that limit.
"""
from __future__ import annotations

from fractions import Fraction

# Digits of the pi/4 reference; agreement is counted up to DIGITS_CAP,
# far below the reference's own error.
PI_DIGITS = 300
DIGITS_CAP = 100


def _arctan_inv(x: int, scale: int) -> int:
    """scale * arctan(1/x) by the Gregory series, in integer arithmetic."""
    power = total = scale // x
    x2, n, sign = x * x, 1, -1
    while power:
        power //= x2
        total += sign * (power // (2 * n + 1))
        sign, n = -sign, n + 1
    return total


def _pi_quarter() -> Fraction:
    """pi/4 from Machin's formula 4*arctan(1/5) - arctan(1/239)."""
    scale = 10 ** (PI_DIGITS + 10)
    return Fraction(4 * _arctan_inv(5, scale) - _arctan_inv(239, scale), scale)


PI_QUARTER = _pi_quarter()


def ilog10(x: Fraction) -> int:
    """floor(log10(x)) for x > 0, from bit lengths and exact comparisons."""
    e = int((x.numerator.bit_length() - x.denominator.bit_length()) * 0.30102999566398)
    while x < Fraction(10) ** e:
        e -= 1
    while x >= Fraction(10) ** (e + 1):
        e += 1
    return e


def digits_correct(value, limit: Fraction) -> int:
    """Leading significant digits of `value` that agree with `limit`.

    Counted as floor(-log10(relative error)), capped at DIGITS_CAP; a
    value that is not a Fraction (an undefined cell) has 0.
    """
    if not isinstance(value, Fraction):
        return 0
    if value == limit:
        return DIGITS_CAP
    return max(0, min(DIGITS_CAP, -ilog10(abs(value - limit) / abs(limit)) - 1))


def catalan_numbers(n: int) -> list[int]:
    """C[0..n-1] by C[i+1] = C[i] * 2(2i+1) / (i+2), independent of the program."""
    out, c = [], 1
    for i in range(n):
        out.append(c)
        c = c * 2 * (2 * i + 1) // (i + 2)
    return out


def leibniz_terms(n: int) -> list[Fraction]:
    return [Fraction((-1) ** i, 2 * i + 1) for i in range(n)]


def exact_key(value) -> str:
    """Exact, limit-free text for a digest: hex p/q, or the undefined marker."""
    if isinstance(value, Fraction):
        return f"{value.numerator:x}/{value.denominator:x}"
    return repr(value)
