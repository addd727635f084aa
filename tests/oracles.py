"""Independent list-based reference implementations for the test suite.

Everything here works on eager Python lists of Fractions (None marks an
undefined cell) and is written directly from the defining formulas, with
no memoization and no code shared with the package. Transform tests and
the acceptance suite compare the lazy stream pipeline against these.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb


def delta_list(s):
    return [
        None if (s[i] is None or s[i + 1] is None) else s[i + 1] - s[i]
        for i in range(len(s) - 1)
    ]


def remainder_list(kind, s):
    d = delta_list(s)
    if kind == "t":
        return d
    if kind == "u":
        return [None if d[i] is None else (i + 1) * d[i] for i in range(len(d))]
    if kind == "v":
        d2 = delta_list(d)
        out = []
        for i in range(len(d2)):
            if d[i] is None or d[i + 1] is None or d2[i] is None or d2[i] == 0:
                out.append(None)
            else:
                out.append(d[i + 1] * d[i] / d2[i])
        return out
    raise ValueError(kind)


def g0_list(kind, j, s, convention):
    r = remainder_list(kind, s)
    out = []
    for i, ri in enumerate(r):
        n = Fraction(i + 1)
        if ri is None:
            out.append(None)
        elif convention == "text":
            out.append(ri / n ** (j - 1))
        else:
            out.append(None if ri == 0 else n ** (j - 1) / ri)
    return out


def eliminate_list(a, b):
    """a[i] - b[i]*(da/db) with the exact-fixed-point short circuit."""
    out = []
    for i in range(min(len(a), len(b)) - 1):
        if a[i] is None or a[i + 1] is None:
            out.append(None)
            continue
        da = a[i + 1] - a[i]
        if da == 0:
            out.append(a[i])
            continue
        if b[i] is None or b[i + 1] is None:
            out.append(None)
            continue
        db = b[i + 1] - b[i]
        out.append(None if db == 0 else a[i] - b[i] * da / db)
    return out


def galg_list(kind, k, j, s, convention):
    """Memoization-free recursion; recomputes sub-results every call."""
    if k == 0:
        return g0_list(kind, j, s, convention)
    return eliminate_list(
        galg_list(kind, k - 1, j, s, convention),
        galg_list(kind, k - 1, k, s, convention),
    )


def ealg_list(kind, k, s, convention):
    if k == 0:
        return list(s)
    return eliminate_list(
        ealg_list(kind, k - 1, s, convention),
        galg_list(kind, k - 1, k, s, convention),
    )


def solve(rows):
    """x with rows[r][:-1]·x = rows[r][-1] for a square augmented system, or None if singular.

    Gaussian elimination in Fractions with row pivoting: each column takes
    the first row at or below the diagonal with a nonzero entry.
    """
    a = [list(row) for row in rows]
    size = len(a)
    for c in range(size):
        p = next((r for r in range(c, size) if a[r][c] != 0), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, size):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    x = [Fraction(0)] * size
    for c in reversed(range(size)):
        x[c] = (a[c][size] - sum(a[c][m] * x[m] for m in range(c + 1, size))) / a[c][c]
    return x


def rank(rows):
    """The rank of a matrix of Fractions, by Gaussian elimination with exact pivots."""
    a = [list(row) for row in rows]
    found = 0
    for c in range(len(a[0]) if a else 0):
        p = next((r for r in range(found, len(a)) if a[r][c] != 0), None)
        if p is None:
            continue
        a[found], a[p] = a[p], a[found]
        for r in range(found + 1, len(a)):
            f = a[r][c] / a[found][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[found])]
        found += 1
    return found


def ealg_ratio_list(kind, k, values, convention, j=None):
    """Order-k E-algorithm cells (k >= 1) as the solution of the model system.

    Cell i is E of t[x] = E + Σ_c a_c·g(0, c)[x] over c = 1..k, for
    x = i..i+k, with t = s (or g(0, j) when j is given): Brezinski's ratio
    of determinants, without the recursion. None where the window holds an
    undefined cell, R is 0 in it, or the system is singular.
    """
    r = remainder_list(kind, values)
    g = {c: g0_list(kind, c, values, convention) for c in range(1, k + 1)}
    t = values if j is None else g0_list(kind, j, values, convention)
    out = []
    for i in range(len(r) - k):
        xs = range(i, i + k + 1)
        if any(r[x] is None or r[x] == 0 or t[x] is None for x in xs):
            out.append(None)
            continue
        solution = solve([[Fraction(1)] + [g[c][x] for c in range(1, k + 1)] + [t[x]] for x in xs])
        out.append(None if solution is None else solution[0])
    return out


def aitken_list(s):
    out = []
    for i in range(len(s) - 2):
        if s[i] is None or s[i + 1] is None:
            out.append(None)
            continue
        d = s[i + 1] - s[i]
        if d == 0:
            out.append(s[i])
            continue
        if s[i + 2] is None:
            out.append(None)
            continue
        d2 = s[i + 2] - 2 * s[i + 1] + s[i]
        out.append(None if d2 == 0 else s[i] - d * d / d2)
    return out


def levin1_list(kind, s):
    r = remainder_list(kind, s)
    out = []
    for i in range(len(r) - 1):
        if s[i] is None or s[i + 1] is None or r[i] is None:
            out.append(None)
            continue
        num = (s[i + 1] - s[i]) * r[i]
        if num == 0:
            out.append(s[i])
            continue
        if r[i + 1] is None:
            out.append(None)
            continue
        den = r[i + 1] - r[i]
        out.append(None if den == 0 else s[i] - num / den)
    return out


def levin2_weights_list(kind, sp, s):
    """Direct evaluation of the order-2 weighted form, cell by cell."""
    r = remainder_list(kind, s)
    count = min(len(sp) - 2, len(r) - 2)
    out = []
    for i in range(count):
        cells = (sp[i], sp[i + 1], sp[i + 2], r[i], r[i + 1], r[i + 2])
        if any(c is None for c in cells):
            out.append(None)
            continue
        out.append(
            (i + 2) * sp[i + 2] * r[i + 1] * r[i]
            - 2 * (i + 1) * sp[i + 1] * r[i + 2] * r[i]
            + i * sp[i] * r[i + 2] * r[i + 1]
        )
    return out


def levin2_list(kind, s):
    num = levin2_weights_list(kind, s, s)
    den = levin2_weights_list(kind, [Fraction(1)] * (len(s) + 2), s)
    out = []
    for i in range(min(len(num), len(den))):
        if num[i] is None or den[i] is None or den[i] == 0:
            out.append(None)
        else:
            out.append(num[i] / den[i])
    return out


def levin_list(kind, k, s):
    """Order-k Levin transform (k >= 1) as a ratio of k-th differences.

    Cell i is Δ^k(n^(k-1) s[n]/R[n]) / Δ^k(n^(k-1)/R[n]) at n = i; a zero
    or undefined R, or a zero denominator, makes the cell undefined.
    """
    r = remainder_list(kind, s)

    def over_r(values):
        return [
            None if (v is None or ri is None or ri == 0) else Fraction(n) ** (k - 1) * v / ri
            for n, (v, ri) in enumerate(zip(values, r))
        ]

    num, den = over_r(s), over_r([Fraction(1)] * len(r))
    for _ in range(k):
        num, den = delta_list(num), delta_list(den)
    return [None if (a is None or b is None or b == 0) else a / b for a, b in zip(num, den)]


def levin_product_list(kind, k, s):
    """Order-k Levin transform (k >= 2) as Σⱼ wⱼ s[i+j] Pⱼ ÷ Σⱼ wⱼ Pⱼ.

    Pⱼ = ∏ R[i+m] over m != j and wⱼ = (-1)^(k-j) C(k, j) (i+j)^(k-1): the
    form cleared of the denominators R, so a zero R is allowed. An
    undefined operand or a zero denominator makes the cell undefined.
    """
    r = remainder_list(kind, s)
    out = []
    for i in range(len(r) - k):
        if any(c is None for c in s[i:i + k + 1] + r[i:i + k + 1]):
            out.append(None)
            continue
        num = den = Fraction(0)
        for j in range(k + 1):
            p = Fraction((-1) ** (k - j) * comb(k, j) * (i + j) ** (k - 1))
            for m in range(k + 1):
                if m != j:
                    p *= r[i + m]
            num += p * s[i + j]
            den += p
        out.append(None if den == 0 else num / den)
    return out


def partial_sums_list(terms):
    """Running sums; an undefined term (None) makes its cell and all later ones None."""
    out = []
    acc = Fraction(0)
    for t in terms:
        acc = None if acc is None or t is None else acc + t
        out.append(acc)
    return out


def ratios_list(values):
    """Consecutive ratios with the leading zero prefix skipped."""
    start = 0
    while start < len(values) and values[start] == 0:
        start += 1
    out = []
    for i in range(start, len(values) - 1):
        out.append(None if values[i] == 0 else Fraction(values[i + 1], values[i]))
    return out


def catalan_list(n):
    c = [1]
    while len(c) < n:
        c.append(sum(c[j] * c[len(c) - 1 - j] for j in range(len(c))))
    return c[:n]


def plain_lambda_list(n):
    v = [0, 0]
    while len(v) < n:
        m = len(v) - 2
        v.append(1 + v[m] + sum(v[k] * v[m - k] for k in range(m + 1)))
    return v[:n]


def arctan_series(inverse_x: int, terms: int) -> Fraction:
    """Partial sum of arctan(1/x); alternating, error < first omitted term."""
    total = Fraction(0)
    for k in range(terms):
        total += Fraction((-1) ** k, (2 * k + 1) * inverse_x ** (2 * k + 1))
    return total


def pi_quarter_reference() -> Fraction:
    """pi/4 as an exact rational, correct to well under 1e-60.

    Machin's identity pi/4 = 4*arctan(1/5) - arctan(1/239); the chosen
    term counts push both truncation errors below 1e-62.
    """
    return 4 * arctan_series(5, 45) - arctan_series(239, 25)
