"""Small numeric and seeding helpers shared across the package.

All distance arithmetic in this package is exact.  Rational quantities are
`fractions.Fraction`; hot loops run on plain integers obtained by rescaling
every weight by a single per-build denominator (see `to_scaled`).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from fractions import Fraction


class HopsetError(ValueError):
    """Base of the package's errors: rejected parameters, hopsets and queries."""


def as_fraction(x) -> Fraction:
    """Convert user input to an exact Fraction.

    Floats are interpreted through their shortest decimal repr, so 0.3 means
    3/10 (not the binary float closest to it).  Strings accept both decimal
    ("0.3") and ratio ("3/10") forms.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def to_scaled(value, den: int) -> int:
    """value * den as an int, for a rational value and a denominator den >= 1.

    The conversion is exact or raises `ValueError`: a mis-chosen
    denominator fails loudly instead of rounding.
    """
    f = Fraction(value)
    num = f.numerator * den
    if num % f.denominator:
        raise ValueError(f"{value} is not representable over denominator {den}")
    return num // f.denominator


def child_seed(*parts) -> int:
    """Derive a 64-bit seed from a parent seed and labels.

    Stable across runs and platforms; used to give every scale and phase its
    own independent RNG stream while keeping whole builds reproducible from
    one root seed.
    """
    material = "/".join(str(p) for p in parts).encode("ascii")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def find(parent: list[int], x: int) -> int:
    """Union-find root of x in `parent`, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@contextmanager
def opened(source):
    """A file path (str or bytes) opened as ASCII text, or a stream as it is.

    A file this opens is closed on exit; a stream passed in is left open.
    Bytes >= 0x80 do not raise here: the text wrapper decodes whole chunks,
    so its error could not name a line.  They read as lone surrogates, and
    a loader rejects each line for which `isascii()` is false.
    """
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="ascii", errors="surrogateescape") as fh:
            yield fh
    else:
        yield source
