"""Built-in integer sequences and ingestion of sequences from files.

The built-ins cover the library's worked examples: Catalan numbers,
counts of plain lambda terms by size (OEIS A114851), term streams of two
classical divergent series, and the Leibniz series for pi/4 as a
convergent benchmark. Values are always computed, never hard-coded.
Both integer sequences are defined by an O(n^2) convolution but computed
by recurrences: plain lambda counts step up from the seed, a Catalan cell
from a neighbour in its stream's cache or else by the closed form
C(2n, n)/(n+1), C(2n, n) a product of prime powers with no big division.
The tests check each generator against its defining convolution
(`tests/oracles.py`), and Catalan also against the closed form. Leibniz
terms are built in lowest terms with no gcd, which is exact: +-1 is
coprime to every 2j + 1.
`open_source(name)` looks a built-in up by its CLI name.

External data arrives through `load_sequence`: one value per line,
integers, "p/q" rationals, decimals or "undefined(<cause>)", "#"
comments and blank lines ignored.
"""
from __future__ import annotations

from _thread import allocate_lock  # threading.Lock, without importing threading
from collections.abc import Callable
from fractions import Fraction
from itertools import compress
from math import isqrt, prod

from .scalars import Undefined, UndefinedReason, parse_scalar
from .streams import NumStream, from_values


def _central_binomial(n: int) -> int:
    """C(2n, n) as a product of prime powers, with no big division.

    By Kummer's theorem an odd prime p <= sqrt(2n) divides it
    sum_j (floor(2n/p^j) - 2 floor(n/p^j)) times, 2 once per 1 bit of n,
    and a prime p above sqrt(2n) once where floor(2n/p) is odd, else not:
    so every prime in (n, 2n] divides it once.
    """
    m, root = 2 * n, isqrt(2 * n)
    is_prime = bytearray([0]) + bytearray([1]) * (n - 1)  # is_prime[i]: 2i + 1 is prime
    factors = [2 ** n.bit_count()]
    for p in compress(range(1, root + 1, 2), is_prime):  # sees each strike: p is prime
        is_prime[p * p // 2::p] = bytes((n - 1 - p * p // 2) // p + 1)
        e, q = 0, p
        while q <= m:
            e, q = e + m // q - 2 * (n // q), q * p
        factors.append(p**e)
    lo, mid = (root + 1) // 2, (n + 1) // 2  # the first odd numbers above root and above n
    factors += [p for p in compress(range(2 * lo + 1, n + 1, 2), is_prime[lo:mid]) if m // p & 1]
    factors += compress(range(2 * mid + 1, m, 2), is_prime[mid:])  # every prime in (n, 2n]
    width = 128  # a product tree: leaves of 128 factors, then pairs, so operands stay balanced
    while len(factors) > 1:
        factors, width = [prod(factors[j:j + width]) for j in range(0, len(factors), width)], 2
    return factors[0]


def catalan_stream() -> NumStream:
    """Catalan numbers 1, 1, 2, 5, 14, ...

    Defined by C[0] = 1, C[n] = sum_{j<n} C[j]*C[n-1-j]. A read steps from a
    neighbour already in the stream's own cache, C[n] = C[n-1] * 2(2n-1) / (n+1),
    or takes C(2n, n) / (n+1): a product of prime powers, then one small
    division. Cached cells never change, so no lock is needed.
    """
    def compute(n: int) -> Fraction:
        if (below := cells.get(n - 1)) is not None:
            return Fraction(below.numerator * 2 * (2 * n - 1) // (n + 1))
        if (above := cells.get(n + 1)) is not None:
            return Fraction(above.numerator * (n + 2) // (2 * (2 * n + 1)))
        return Fraction(_central_binomial(n) // (n + 1))

    s = NumStream(compute)
    cells = s._cache  # the cache, not the stream: no cycle keeps the stream alive
    return s


def plain_lambda_terms_stream() -> NumStream:
    """Counts of plain lambda terms by size (OEIS A114851).

    Defined by S[0] = S[1] = 0 and S[n+2] = 1 + S[n] + sum_{k<=n} S[k]*S[n-k],
    for the size convention where abstractions and applications weigh 2
    and a variable weighs 1 plus its binder depth. The generating function
    is algebraic, x^2 S^2 + (x^2 - 1) S + x^2/(1 - x) = 0, so the counts are
    D-finite and, from the seed 0, 0, 1, 1, 2, 2, follow

        (n+8) S[n+6] = (2n+14) S[n+5] + (n+4) S[n+4] - (4n+16) S[n+3]
                       + (5n+12) S[n+2] - (2n+4) S[n+1] - n S[n].

    The division by n+8 is exact; a remainder raises ArithmeticError
    rather than rounding a count.
    """
    v = [0, 0, 1, 1, 2, 2]
    lock = allocate_lock()

    def compute(i: int) -> Fraction:
        with lock:
            if len(v) <= i:
                s0, s1, s2, s3, s4, s5 = v[-6:]  # S[n], ..., S[n+5] for n = len(v) - 6
                for n in range(len(v) - 6, i - 5):
                    total = ((2 * n + 14) * s5 + (n + 4) * s4 - (4 * n + 16) * s3
                             + (5 * n + 12) * s2 - (2 * n + 4) * s1 - n * s0)
                    count, remainder = divmod(total, n + 8)
                    if remainder:
                        raise ArithmeticError(
                            f"plain-lambda recurrence not exact at index {n + 6}")
                    v.append(count)
                    s0, s1, s2, s3, s4, s5 = s1, s2, s3, s4, s5, count
            return Fraction(v[i])

    return NumStream(compute)


def grandi_terms() -> NumStream:
    """Terms of 1 - 1 + 1 - 1 + ..."""
    one, minus_one = Fraction(1), Fraction(-1)
    return NumStream(lambda i: one if i % 2 == 0 else minus_one)


def alternating_naturals_terms() -> NumStream:
    """Terms 0, 1, -2, 3, -4, ... of the alternating-naturals series."""
    return NumStream(lambda i: Fraction(i) if i % 2 == 1 else Fraction(-i))


def leibniz_pi4_terms() -> NumStream:
    """Terms (-1)^j / (2j + 1); the partial sums converge to pi/4.

    Each term is built in lowest terms with no gcd, in one call: +-1 is
    coprime to any 2j + 1 > 0. It sets Fraction's two `__slots__`
    (3.10-3.13), as Fraction's own fast paths do; a renamed slot raises.
    """
    def term(i: int) -> Fraction:
        f = object.__new__(Fraction)
        f._numerator, f._denominator = -1 if i & 1 else 1, 2 * i + 1
        return f

    return NumStream(term)


BUILTIN_SEQUENCES: dict[str, Callable[[], NumStream]] = {
    "catalan": catalan_stream,
    "plain-lambda": plain_lambda_terms_stream,
    "grandi-terms": grandi_terms,
    "alt-naturals": alternating_naturals_terms,
    "leibniz-pi4-terms": leibniz_pi4_terms,
}


class UnknownSequenceError(ValueError):
    """No built-in sequence has the requested name."""


def open_source(name: str) -> NumStream:
    """A fresh stream of the built-in sequence called `name`."""
    try:
        factory = BUILTIN_SEQUENCES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SEQUENCES))
        raise UnknownSequenceError(f"unknown builtin sequence {name!r} (known: {known})") from None
    return factory()


class SequenceParseError(ValueError):
    """A sequence file did not match the one-value-per-line grammar; `path` is as passed."""

    def __init__(self, path, line_no: int, token: str, detail: str):
        self.path = path
        self.line_no = line_no
        self.token = token
        super().__init__(f"{path}: line {line_no}: {detail}")


_UNDEFINED = {f"undefined({reason.value})": Undefined(reason) for reason in UndefinedReason}


def load_sequence(path) -> NumStream:
    """Parse the file at `path` (str or os.PathLike) into a finite stream, in file order.

    Grammar per non-blank line: optional sign, digits, then optionally
    "/digits", or ".digits" and an exponent "e[+-]digits" (`parse_scalar`);
    or "undefined(<cause>)" with <cause> an `UndefinedReason` value, read
    as `Undefined(<cause>)`, the form `render_decimal` prints an undefined
    cell in. Text after "#" is a comment. An empty file is an empty stream.
    """
    values = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            token = raw.split("#", 1)[0].strip()
            if not token:
                continue
            try:
                values.append(_UNDEFINED[token] if token in _UNDEFINED else parse_scalar(token))
            except ValueError as exc:
                raise SequenceParseError(path, line_no, token, str(exc)) from None
    return from_values(values)
