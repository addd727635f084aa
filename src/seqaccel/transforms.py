"""Sequence transformations that accelerate convergence.

Three classic remainder models (kinds t, u, v) feed two accelerator
families:

* the E-algorithm, a recursive elimination scheme valid for any order,
  driven by auxiliary weight streams g(k, j); and
* Levin transforms of any order, one closed formula for all of them.
  Order 1 with the t model is Aitken's delta-squared process.

Two conventions for the order-0 weights circulate in the literature and
are **not** equivalent: g(0, j)[n] = n^(1-j) * R[n] (`GConvention.TEXT`)
and g(0, j)[n] = n^(j-1) / R[n] (`GConvention.CODE`). TEXT is the
default and is the one for which order-1 E-algorithm, order-1 Levin and
Aitken coincide; CODE is kept selectable because published E-algorithm
runs exist for both. See README for measured differences.

Every elimination step a[i] - b[i] * (Δa[i] / Δb[i]) applies one
short-circuit rule: if Δa[i] is exactly 0 the correction is 0 and the
result is a[i] regardless of Δb[i]; if Δa[i] != 0 and Δb[i] = 0 the cell
is undefined. This preserves exact fixed points, so a transform that has
already collapsed a sequence to its (anti-)limit is not destroyed by
applying a higher order.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, prod

from .scalars import (
    Element,
    Undefined,
    UndefinedReason,
    div,
    first_undefined,
    int_pow,
    mul,
    propagated,
)
from .streams import (
    NumStream,
    forward_difference,
    from_function,
    iota,
    stream_tail,
    zip_with,
)

__all__ = [
    "Kind",
    "GConvention",
    "Method",
    "TransformSpec",
    "remainder_estimate",
    "g_initial",
    "g_algorithm",
    "e_algorithm",
    "aitken",
    "levin",
]


class Kind(Enum):
    """Remainder model: R = Δs (T), R = n·Δs (U), R = Δs'·Δs/Δ²s (V)."""

    T = "t"
    U = "u"
    V = "v"


class GConvention(Enum):
    TEXT = "text"  # g(0, j)[n] = n^(1-j) * R[n]
    CODE = "code"  # g(0, j)[n] = n^(j-1) / R[n]


class Method(Enum):
    EALG = "ealg"
    LEVIN = "levin"


@dataclass(frozen=True)
class TransformSpec:
    """A complete accelerator recipe; `apply` builds the output stream."""

    method: Method
    kind: Kind
    order: int
    g_convention: GConvention = GConvention.TEXT

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")

    def apply(self, s: NumStream) -> NumStream:
        if self.method is Method.LEVIN:
            return levin(self.kind, self.order, s)
        return e_algorithm(self.kind, self.order, s, self.g_convention)

    def describe(self) -> str:
        base = f"{self.method.value} kind={self.kind.value} order={self.order}"
        if self.method is Method.EALG:
            base += f" g-convention={self.g_convention.value}"
        return base


def remainder_estimate(kind: Kind, s: NumStream) -> NumStream:
    """The R stream modelling the error of s, per the chosen kind."""
    d = forward_difference(s)
    if kind is Kind.T:
        return d
    if kind is Kind.U:
        return zip_with(mul, d, iota(1, 1))
    # V: product of two consecutive differences over the second difference
    return zip_with(div, zip_with(mul, stream_tail(d), d), forward_difference(d))


def g_initial(kind: Kind, j: int, s: NumStream, convention: GConvention) -> NumStream:
    """Order-0 weight stream g(0, j) under the selected convention."""
    if j < 1:
        raise ValueError(f"weight column j must be >= 1, got {j}")
    r = remainder_estimate(kind, s)
    n_pow = from_function(lambda i: int_pow(Fraction(i + 1), j - 1))
    if convention is GConvention.TEXT:
        return zip_with(div, r, n_pow)  # n^(1-j) * R, with n >= 1
    return zip_with(div, n_pow, r)


def _eliminate(a: NumStream, b: NumStream) -> NumStream:
    """One elimination step: a[i] - b[i] * (Δa[i] / Δb[i]).

    Short-circuit rule: Δa[i] == 0 returns a[i] outright; Δa[i] != 0 with
    Δb[i] == 0 is a genuine division by zero.
    """

    def compute(i: int) -> Element:
        a0, a1 = a.at(i), a.at(i + 1)
        u = first_undefined(a0, a1)
        if u:
            return propagated(u)
        da = a1 - a0
        if da == 0:
            return a0
        b0, b1 = b.at(i), b.at(i + 1)
        u = first_undefined(b0, b1)
        if u:
            return propagated(u)
        db = b1 - b0
        if db == 0:
            return Undefined(UndefinedReason.DIV_BY_ZERO)
        return a0 - b0 * da / db

    la, lb = a.length, b.length
    if la is None and lb is None:
        length = None
    else:
        length = max(min(x for x in (la, lb) if x is not None) - 1, 0)
    return NumStream(compute, length)


def _g_table(kind: Kind, s: NumStream, convention: GConvention):
    """Shared, memoized builder for the g(k, j) weight streams."""
    cache: dict[tuple[int, int], NumStream] = {}

    def g(k: int, j: int) -> NumStream:
        key = (k, j)
        if key not in cache:
            if k == 0:
                cache[key] = g_initial(kind, j, s, convention)
            else:
                cache[key] = _eliminate(g(k - 1, j), g(k - 1, k))
        return cache[key]

    return g


def g_algorithm(
    kind: Kind, k: int, j: int, s: NumStream, convention: GConvention = GConvention.TEXT
) -> NumStream:
    """Auxiliary weight stream g(k, j) of the E-algorithm."""
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")
    return _g_table(kind, s, convention)(k, j)


def e_algorithm(
    kind: Kind, k: int, s: NumStream, convention: GConvention = GConvention.TEXT
) -> NumStream:
    """E-algorithm of order k; order 0 is the identity."""
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")
    g = _g_table(kind, s, convention)
    e = s
    for level in range(1, k + 1):
        e = _eliminate(e, g(level - 1, level))
    return e


def aitken(s: NumStream) -> NumStream:
    """Aitken's delta-squared process: s[i] - (Δs[i])² / Δ²s[i].

    Exact on any sequence of the form L + c·qⁱ (q not in {0, 1}), where
    every defined cell equals L. Constant stretches pass through
    unchanged via the short-circuit rule.
    """
    return levin(Kind.T, 1, s)


def levin(kind: Kind, k: int, s: NumStream) -> NumStream:
    """Levin transform of order k >= 0; order 0 is the identity.

    With R the remainder estimate of s, cell i of order k >= 1 is
    Σⱼ wⱼ s[i+j]/R[i+j] ÷ Σⱼ wⱼ/R[i+j] over j = 0..k, with
    wⱼ = (-1)^(k-j) C(k, j) (i+j)^(k-1), evaluated multiplied through by
    R[i]···R[i+k] so that a zero R does not by itself leave the cell
    undefined. Order 1 keeps the short-circuit rule: when Δs[i]·R[i] = 0
    the cell is s[i] and R[i+1] is not read. From order 2 on, a zero
    denominator is undefined as in `div`. An undefined operand makes the
    cell undefined with the cause of the first one in summand order
    (see `_summand_operands`). Order 1 with kind T is `aitken`.
    """
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")
    if k == 0:
        return s
    r = remainder_estimate(kind, s)
    signed_binomials = [(-1) ** (k - j) * comb(k, j) for j in range(k + 1)]

    def compute(i: int) -> Element:
        s_win = [s.at(i + j) for j in range(k + 1)]
        if k == 1:
            s0, s1, r0 = s_win[0], s_win[1], r.at(i)
            u = first_undefined(s0, s1, r0)
            if u:
                return propagated(u)
            if s1 == s0 or r0 == 0:  # Δs[i]·R[i] = 0
                return s0
        r_win = [r.at(i + m) for m in range(k + 1)]
        u = first_undefined(*_summand_operands(s_win, r_win))
        if u:
            return propagated(u)
        # s[i] + N'/D with N' = Σⱼ wⱼ (s[i+j] - s[i]) Pⱼ and D = Σⱼ wⱼ Pⱼ,
        # where Pⱼ is R[i]···R[i+k] without R[i+j]. N'/D equals the
        # transform minus s[i]; the differences s[i+j] - s[i] keep the
        # operands small where s[i] itself is a large rational.
        s0 = s_win[0]
        p = [prod(r_win[:j] + r_win[j + 1:], start=c * (i + j) ** (k - 1))
             for j, c in enumerate(signed_binomials)]
        num = sum(pj * (sj - s0) for pj, sj in zip(p[1:], s_win[1:]))
        den = sum(p)
        if den == 0:
            return div(num, den)
        return s0 + num / den

    length = None if r.length is None else max(r.length - k, 0)
    return NumStream(compute, length)


def _summand_operands(s_win: list, r_win: list):
    """Operands of the summands wⱼ s[i+j] Pⱼ, from j = k down to 0.

    Each summand yields s[i+j] and then R[i+m] for m = k down to 0,
    m != j; the first undefined one names the cell's cause.
    """
    k = len(s_win) - 1
    for j in range(k, -1, -1):
        yield s_win[j]
        yield from (r_win[m] for m in range(k, -1, -1) if m != j)
