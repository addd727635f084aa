"""Sequence transformations that accelerate convergence.

Three classic remainder models (kinds t, u, v) feed two accelerator
families of any order, the E-algorithm and Levin transforms. Order-1
Levin with the t model is Aitken's delta-squared process.

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
applying a higher order. It saves work, not reads: E-algorithm cell i
of order k >= 1 reads s[i..i+k+1] (kinds t, u) or s[i..i+k+2] (v).

Both families compute cell i of order k >= 1 with one kernel,
`_weighted_ratio`: Δᵏ[n^(k-1)·w·t] / Δᵏ[n^(k-1)·w] at n = n0, one weighted sum
of integers and one `Fraction`. Levin has t = s, w = 1/R and n0 = i. An
E-algorithm cell is a ratio of two determinants (Brezinski 1980), and these
weights solve the model exactly (Sidi 2003): t is the top column (s, or g(0, j)
for `g_algorithm`), and w = 1/R with n0 = i + 1 (TEXT) or w = R with no power
of n (CODE). A cell reads one window of Δs, whose cells are Elements as every
stream's are, and the weights come from it alone (`_delta_weights`): 1/R is
1/Δs[x] (t), 1/((x+1)·Δs[x]) (u) or 1/Δs[x] - 1/Δs[x+1] (v). The same cells are
s's differences (g(0, j) differences its window). R (`_remainder`) is read only
where that gives None, a degenerate window (an undefined or zero Δs, or equal
neighbours for v: an undefined or zero R), or where an E-algorithm denominator
is 0. Levin then gives s[i+j] for a lone zero R[i+j] (`zero-over-zero` if
(i+j)^(k-1) = 0) and `zero-over-zero` for more; the E-algorithm takes the
table, which has the ratio's value wherever no pivot is zero. Where a pivot
vanishes but the ratio exists, the cell is the ratio; where the window's system
is singular, a defined cell is one limit that the window fits. Along a stream a
cell makes k + 5 `NumStream.at` calls (k + 6 for kind v), keeps no window, and
forces each input cell once, as its Δs window reads them.
"""
from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import pairwise
from fractions import Fraction
from math import comb, gcd, lcm

from .scalars import (
    Element,
    Undefined,
    UndefinedReason,
    _slot_sum,
    div,
    first_undefined,
    mul,
    propagated,
    sub,
)
from .streams import NumStream, forward_difference


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


class TransformSpec(namedtuple("TransformSpec", "method kind order g_convention")):
    """A complete accelerator recipe; `apply` builds the output stream."""

    __slots__ = ()

    def __new__(cls, method: Method, kind: Kind, order: int,
                g_convention: GConvention = GConvention.TEXT):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        return super().__new__(cls, method, kind, order, g_convention)

    def apply(self, s: NumStream) -> NumStream:
        if self.method is Method.LEVIN:
            return levin(self.kind, self.order, s)
        return e_algorithm(self.kind, self.order, s, self.g_convention)


def _remainder(kind: Kind, s: NumStream, d: NumStream) -> NumStream:
    """R over d = Δs: d itself (t), (x + 1)·d[x] (u), or d[x + 1]·d[x] / Δd[x] (v)."""
    if kind is Kind.T:
        return d

    def cell(x: int) -> Element:
        if kind is Kind.U:
            return mul(d.at(x), x + 1)
        d1, d0 = d.at(x + 1), d.at(x)  # kind v reads d[x + 1] first
        return div(mul(d1, d0), sub(d1, d0))

    return NumStream(cell, _extent(kind, s, 0))


def _extent(kind: Kind, s: NumStream, k: int) -> int | None:
    """Length of R (k = 0), or of an order-k transform, over s."""
    return None if s.length is None else max(s.length - 1 - (kind is Kind.V) - k, 0)


def _weight(j: int, x: int, r: Element, convention: GConvention) -> Element:
    """Order-0 weight g(0, j)[x] from the remainder cell r = R[x]."""
    n_pow = Fraction(x + 1) ** (j - 1)
    if convention is GConvention.TEXT:
        return div(r, n_pow)  # n^(1-j) * R, with n >= 1
    return div(n_pow, r)


def _eliminate(a: tuple, b: tuple) -> tuple:
    """Row x of the next level from rows x and x + 1 of this one, less column 1.

    Column c is a[c] - q·Δ[c], with Δ = b - a and the pivot q = a[1] / Δ[1]
    taken once per row. An undefined a[c] or b[c] comes first; then the
    short-circuit rule: Δ[c] == 0 gives a[c], else Δ[1] == 0 is a division by zero.
    """
    u = first_undefined(a[1], b[1])
    if u:
        q = propagated(u)
    else:
        q = a[1] / (b[1] - a[1]) if b[1] != a[1] else Undefined(UndefinedReason.DIV_BY_ZERO)
    row = []
    for x, y in zip(a[:1] + a[2:], b[:1] + b[2:]):
        u = first_undefined(x, y)
        if u:
            row.append(propagated(u))
        else:
            row.append(x if y == x else q if isinstance(q, Undefined) else x - q * (y - x))
    return tuple(row)


def _over_lcm(nums: list[int], dens: list[int]) -> list[int]:
    """n/d for each pair, all times the lcm of the d: integers with one common factor."""
    m = lcm(*dens)
    return [n * (m // d) for n, d in zip(nums, dens)]


def _delta_weights(kind: Kind, i: int, dw: list, text: bool) -> list[int] | None:
    """1/R[i..i+k] (text) or R (code) from Δs[i..] = dw alone, times one integer; None for
    a degenerate window, where a Δs cell is undefined or 0, or (v) two neighbours are equal:
    exactly where a cell of R[i..i+k] is undefined or 0. A cell that is no Element raises
    TypeError."""
    try:  # an Undefined has no such slots
        ps, qs = [c._numerator for c in dw], [c._denominator for c in dw]
    except AttributeError:
        if all(isinstance(c, Element) for c in dw):
            return None
        raise TypeError("a stream cell is not an Element (Fraction or Undefined)") from None
    if 0 in ps:
        return None
    if kind is Kind.U:
        ps = [p * n for n, p in enumerate(ps, i + 1)]
    elif kind is Kind.V and text:  # 1/R = 1/Δs[x] - 1/Δs[x+1]
        ws = [a - b for a, b in pairwise(_over_lcm(qs, ps))]
        return None if 0 in ws else ws
    elif kind is Kind.V:  # R = ab/(by - az) for Δs[x] = a/y and Δs[x+1] = b/z
        qs = [b * y - a * z for (a, y), (b, z) in pairwise(zip(ps, qs))]
        return None if 0 in qs else _over_lcm([a * b for a, b in pairwise(ps)], qs)
    return _over_lcm(qs, ps) if text else _over_lcm(ps, qs)


def _closed_form(i: int, ws: list | None, t_win: list, text: bool, dt, signs) -> Fraction | None:
    """Cell i by `_weighted_ratio`, or None where ws (1/R for text, with n0 = i + 1; R for
    code) is None, a cell of t_win (the top column, or its first cell) is undefined, or the
    ratio's denominator is 0. dt holds t's differences on the window, or is None."""
    if ws is None or first_undefined(*t_win):
        return None
    dt = dt or [b - a for a, b in zip(t_win, t_win[1:])]
    value = _weighted_ratio(ws, t_win[0], dt, i + 1 if text else None, signs)
    return None if isinstance(value, Undefined) else value


def _weighted_ratio(ws: list[int], t0: Fraction, dt: list, n0: int | None, signs) -> Element:
    """t[0] + Σⱼ Wⱼ·wⱼ·(t[j] - t[0]) / Σⱼ Wⱼ·wⱼ over j = 0..k = len(ws) - 1.

    Wⱼ = signs[j] = (-1)^(k-j) C(k, j), times (n0 + j)^(k-1) unless n0 is
    None: the ratio Δᵏ[n^(k-1)·w·t] / Δᵏ[n^(k-1)·w] at n = n0, or
    Δᵏ[w·t] / Δᵏ[w]. t[j] - t[0] runs up the differences dt in integers
    over one denominator (small where t[0] is a large rational), then one
    `Fraction` is added to t[0]; a zero denominator is undefined as in `div`.
    """
    dens = [c._denominator for c in dt]
    e, k = lcm(*dens), len(ws) - 1
    weighted = [b * w * (1 if n0 is None else (n0 + j) ** (k - 1))
                for j, (b, w) in enumerate(zip(signs, ws))]
    num = run = 0
    for w, c, q in zip(weighted[1:], dt, dens):
        run += c._numerator * (e // q)  # (t[j] - t[0])·e
        num += w * run
    den = e * sum(weighted)
    if not den:
        return div(num, den)
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return _slot_sum(t0._numerator, t0._denominator, num // g, den // g)


def _table(kind: Kind, k: int, s: NumStream, convention: GConvention, j=None) -> NumStream:
    """Level k of the E-algorithm table; the top column is s, or g(0, j).

    Cell i takes its closed form (`_closed_form`) wherever that determinant ratio is
    defined; otherwise it reads R over its window and fills the table. Row x at level m
    holds cell x of the top column and of g(m, m+1), ..., g(m, k), its second entry the
    pivot of level m + 1; level 0 comes from the window the cell read, and row x at level
    m >= 1 is `_eliminate` of rows x and x+1 below, for x = i..i+k-m, bottom-up.
    """
    d = forward_difference(s)
    r = _remainder(kind, s, d)
    top = s if j is None else NumStream(lambda x: _weight(j, x, r.at(x), convention), r.length)
    text, v = convention is GConvention.TEXT, kind is Kind.V
    signs = [(-1) ** (k - x) * comb(k, x) for x in range(k + 1)]
    rows: list[dict[int, tuple]] = [{} for _ in range(k + 1)]

    def compute(i: int) -> Element:
        window = range(i, i + k + 1)
        dw = list(map(d.at, range(i, i + k + 1 + v)))
        t_win = [top.at(i)] if j is None else list(map(top.at, window))  # s[i]: Δs gives the rest
        if k:
            ws = _delta_weights(kind, i, dw, text)
            value = _closed_form(i, ws, t_win, text, None if j else dw[:k], signs)
            if value is not None:
                return value
        r_win = list(map(r.at, window))
        t_win += map(top.at, window[len(t_win):])
        for x, rx, tx in zip(window, r_win, t_win):
            if x not in rows[0]:  # rows are deterministic: write-once suffices
                rows[0].setdefault(x, (tx, *(_weight(c, x, rx, convention)
                                             for c in range(1, k + 1))))
        for m in range(1, k + 1):
            below, level = rows[m - 1], rows[m]
            for x in range(i, i + k - m + 1):
                if x not in level:
                    level.setdefault(x, _eliminate(below[x], below[x + 1]))
        return rows[k][i][0]

    return NumStream(compute, _extent(kind, s, k))


def g_algorithm(
    kind: Kind, k: int, j: int, s: NumStream, convention: GConvention = GConvention.TEXT
) -> NumStream:
    """Auxiliary weight stream g(k, j) of the E-algorithm (k >= 0, j >= 1)."""
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")
    if j < 1:
        raise ValueError(f"weight column j must be >= 1, got {j}")
    return _table(kind, k, s, convention, j)


def e_algorithm(
    kind: Kind, k: int, s: NumStream, convention: GConvention = GConvention.TEXT
) -> NumStream:
    """E-algorithm of order k; order 0 is the identity."""
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")
    return _table(kind, k, s, convention) if k else s


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
    wⱼ = (-1)^(k-j) C(k, j) (i+j)^(k-1): `_weighted_ratio` with n0 = i.
    A lone zero R[i+j] makes the cell s[i+j], or `zero-over-zero` where
    (i+j)^(k-1) = 0 (i = j = 0, k >= 2); two or more make it
    `zero-over-zero`. Order 1 keeps the short-circuit rule: when
    Δs[i]·R[i] = 0 the cell is s[i] and R[i+1] is not read. Kind v decides
    it from Δs[i] and Δs[i+1] and reads R[i] only where Δs[i+1] is undefined,
    0 or Δs[i], the cells where R[i] is undefined or 0. From order 2
    on, a zero denominator is undefined as in `div`. An undefined operand makes
    the cell undefined with the cause of the first one in summand order,
    s[i+k], R[i+k-1..i], s[i+k-1], R[i+k], s[i+k-2..i] (the summands wⱼ s[i+j]
    ∏ R[i+m], j then m != j from k down to 0) from order 2 on; order 1 checks
    s[i], s[i+1], R[i], then R[i+1]. Order 1 with kind T is `aitken`.
    Kind u scales R[i] by i + 1 while the weights use (i+j)^(k-1), so
    from order 2 on it is a modified u, the textbook variant u for no β.
    """
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")
    if k == 0:
        return s
    d = forward_difference(s)
    r = _remainder(kind, s, d)
    v, signs = kind is Kind.V, [(-1) ** (k - x) * comb(k, x) for x in range(k + 1)]

    def compute(i: int) -> Element:
        if k == 1:  # the short-circuit; for t and u, R[i] is 0 exactly where Δs[i] is
            s0, s1 = s.at(i), s.at(i + 1)
            u = first_undefined(s0, s1)
            if v:  # R[i] = d1·d0 / (d1 - d0), undefined or 0 only where d1 is undefined, 0 or d0
                d1 = d.at(i + 1)  # read where u is set too: a short-circuit cell forces s[i..i+2]
                if not u and (isinstance(d1, Undefined) or d1 == 0 or d1 == d.at(i)):
                    u = first_undefined(r.at(i))
                    return propagated(u) if u else s0
            if u or s1 == s0:
                return propagated(u) if u else s0
        t0 = s.at(i)
        dw = list(map(d.at, range(i, i + k + 1 + v)))
        if ws := _delta_weights(kind, i, dw, True):
            return _weighted_ratio(ws, t0, dw[:k], i, signs)
        s_win = list(map(s.at, range(i, i + k + 1)))
        r_win = list(map(r.at, range(i, i + k + 1)))
        u = first_undefined(s_win[k], *reversed(r_win[:k]), s_win[k - 1], r_win[k],
                            *reversed(s_win[:k - 1]))
        if u:
            return propagated(u)
        # R has a zero: ∏ R[i+m] over m != j vanishes but at the j of a lone zero.
        lone_zero = r_win.count(0) == 1
        ws = [int(lone_zero and c == 0) for c in r_win]
        return _weighted_ratio(ws, t0, dw[:k], i, signs)

    return NumStream(compute, _extent(kind, s, k))
