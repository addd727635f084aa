"""Built-in integer sequences and ingestion of sequences from files.

The built-ins cover the library's worked examples: Catalan numbers,
counts of plain lambda terms by size (OEIS A114851), term streams of two
classical divergent series, and the Leibniz series for pi/4 as a
convergent benchmark. Values are always generated from their defining
recurrences, never hard-coded, so each generator can be falsified
against an independent source. `open_source(name)` looks a built-in up
by its CLI name.

External data arrives through `load_sequence`: one value per line,
integers, "p/q" rationals or plain decimals, "#" comments and blank
lines ignored.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .scalars import parse_scalar
from .streams import NumStream, from_function, from_values

__all__ = [
    "catalan_stream",
    "plain_lambda_terms_stream",
    "grandi_terms",
    "alternating_naturals_terms",
    "leibniz_pi4_terms",
    "BUILTIN_SEQUENCES",
    "open_source",
    "SequenceParseError",
    "load_sequence",
]


def _recurrence_stream(seed: list[int], extend: Callable[[list[int]], int]) -> NumStream:
    """Infinite stream from an integer recurrence with internal memo."""
    values = list(seed)
    lock = threading.Lock()

    def compute(i: int) -> Fraction:
        with lock:
            while len(values) <= i:
                values.append(extend(values))
            return Fraction(values[i])

    return NumStream(compute)


def catalan_stream() -> NumStream:
    """Catalan numbers 1, 1, 2, 5, 14, ... via the convolution recurrence."""

    def extend(c: list[int]) -> int:
        n = len(c)
        return sum(c[j] * c[n - 1 - j] for j in range(n))

    return _recurrence_stream([1], extend)


def plain_lambda_terms_stream() -> NumStream:
    """Counts of plain lambda terms by size (OEIS A114851).

    S[0] = S[1] = 0 and S[n+2] = 1 + S[n] + sum_{k<=n} S[k]*S[n-k], for the
    size convention where abstractions and applications weigh 2 and a
    variable weighs 1 plus its binder depth.
    """

    def extend(v: list[int]) -> int:
        n = len(v) - 2
        return 1 + v[n] + sum(v[k] * v[n - k] for k in range(n + 1))

    return _recurrence_stream([0, 0], extend)


def grandi_terms() -> NumStream:
    """Terms of 1 - 1 + 1 - 1 + ..."""
    one, minus_one = Fraction(1), Fraction(-1)
    return from_function(lambda i: one if i % 2 == 0 else minus_one)


def alternating_naturals_terms() -> NumStream:
    """Terms 0, 1, -2, 3, -4, ... of the alternating-naturals series."""
    return from_function(lambda i: Fraction(i) if i % 2 == 1 else Fraction(-i))


def leibniz_pi4_terms() -> NumStream:
    """Terms (-1)^j / (2j + 1); the partial sums converge to pi/4."""
    return from_function(lambda i: Fraction((-1) ** i, 2 * i + 1))


BUILTIN_SEQUENCES: dict[str, Callable[[], NumStream]] = {
    "catalan": catalan_stream,
    "plain-lambda": plain_lambda_terms_stream,
    "grandi-terms": grandi_terms,
    "alt-naturals": alternating_naturals_terms,
    "leibniz-pi4-terms": leibniz_pi4_terms,
}


def open_source(name: str) -> NumStream:
    """A fresh stream of the built-in sequence called `name`."""
    try:
        factory = BUILTIN_SEQUENCES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SEQUENCES))
        raise ValueError(f"unknown builtin sequence {name!r} (known: {known})") from None
    return factory()


class SequenceParseError(ValueError):
    """A sequence file did not match the one-value-per-line grammar."""

    def __init__(self, path, line_no: int, token: str, detail: str):
        self.path = Path(path)
        self.line_no = line_no
        self.token = token
        super().__init__(f"{path}: line {line_no}: {detail}")


def load_sequence(path) -> NumStream:
    """Parse a sequence file into a finite stream, in file order.

    Grammar per non-blank line: optional sign, digits, then optionally
    "/digits" or ".digits". Text after "#" is a comment. An empty file is
    an empty stream.
    """
    path = Path(path)
    values = []
    with path.open("r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            token = raw.split("#", 1)[0].strip()
            if not token:
                continue
            try:
                values.append(parse_scalar(token))
            except ValueError as exc:
                raise SequenceParseError(path, line_no, token, str(exc)) from None
    return from_values(values)
