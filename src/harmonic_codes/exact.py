"""p/q token parsing, error types and small dense symmetric matrices.

Every certificate in this package is computed over `fractions.Fraction`;
floats never enter except in the optional coordinate export.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class DimensionError(ValueError):
    """Operands have incompatible sizes."""


class StructureError(ValueError):
    """A point set or matrix violates a required structural property."""


class DomainError(ValueError):
    """A value lies outside the mathematically admissible domain."""


def parse_rational(token: str) -> Fraction:
    """A p/q (or plain decimal) token as a Fraction; malformed tokens are a DomainError.

    Exponent notation is rejected: 1e29999999 would expand to a huge integer.
    """
    if "e" in token or "E" in token:
        raise DomainError(f"exponent notation is not accepted: {token!r}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational token {token!r}") from exc


@dataclass(frozen=True)
class SymMatrix:
    """Immutable symmetric matrix with Fraction entries."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise StructureError("matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise StructureError(f"entries ({i},{j}) and ({j},{i}) differ")

    @property
    def n(self) -> int:
        return len(self.entries)


def frobenius_inner(a: SymMatrix, b: SymMatrix) -> Fraction:
    """Entrywise product sum over the full square, exact."""
    if a.n != b.n:
        raise DimensionError(f"orders {a.n} and {b.n} differ")
    total = Fraction(0)
    for row_a, row_b in zip(a.entries, b.entries):
        for x, y in zip(row_a, row_b):
            total += x * y
    return total
