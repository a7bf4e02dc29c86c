"""Spherical-harmonic dimensions and normalized Gegenbauer polynomials.

The polynomials here are the ultraspherical family C_k^lambda with
lambda = (d-1)/2 for points on S^d, normalized so that the value at t = 1
is exactly 1 (the Chebyshev T_k on the circle, d = 1).  They come from one
three-term recurrence that keeps this normalization at every step, for
every d >= 1.  Under this normalization the degree-k polynomial gives the
inner product of degree-k reproducing-kernel elements attached to two
sphere points with inner product t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import DomainError, Rational


def harmonic_dimension(d: int, k: int) -> int:
    """Dimension of the space of degree-k spherical harmonics on S^d.

    Evaluates (2k+d-1)/(k+d-1) * C(d+k-1, k) exactly.  By convention the
    degree-0 space (constants) has dimension 1.
    """
    if d < 1:
        raise DomainError("sphere dimension must be >= 1")
    if k < 0:
        raise DomainError("degree must be >= 0")
    if k == 0:
        return 1
    value = Fraction(2 * k + d - 1, k + d - 1) * math.comb(d + k - 1, k)
    assert value.denominator == 1
    return int(value)


@dataclass(frozen=True)
class GegenbauerPoly:
    """Degree-k Gegenbauer polynomial for S^d, normalized to 1 at t = 1.

    coeffs holds k+1 Rational coefficients, constant term first.  Only
    every other coefficient can be nonzero (the polynomial has the parity
    of its degree).
    """

    d: int
    k: int
    coeffs: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.k + 1:
            raise DomainError("coefficient count must be degree + 1")
        for j, c in enumerate(self.coeffs):
            if (j - self.k) % 2 != 0 and c != 0:
                raise DomainError(f"parity violation at power {j}")
        if sum(self.coeffs) != 1:  # the value at t = 1
            raise DomainError("polynomial is not normalized at t = 1")

    def evaluate(self, t: int | Rational) -> Rational:
        """Exact Horner evaluation."""
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def gegenbauer_family(d: int, k_max: int) -> tuple[GegenbauerPoly, ...]:
    """Normalized Gegenbauer polynomials P_0, ..., P_k_max for S^d, in one run.

    Runs the normalized family's own three-term recurrence
    (j+d-2) P_j = (2j+d-3) t P_{j-1} - (j-1) P_{j-2} from P_0 = 1 and
    P_1 = t.  Every P_j is 1 at t = 1 by construction, the divisor j+d-2
    is at least 1 for j >= 2, and at d = 1 the recurrence is Chebyshev's
    T_j = 2t T_{j-1} - T_{j-2}.  Member k of the result has degree k.
    """
    if d < 1:
        raise DomainError("sphere dimension must be >= 1")
    if k_max < 0:
        raise DomainError("degree must be >= 0")
    family = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for j in range(2, k_max + 1):
        prev2, prev1 = family[-2], family[-1]
        cur = [Fraction(0)] + [(2 * j + d - 3) * c for c in prev1]
        for i, c in enumerate(prev2):
            cur[i] -= (j - 1) * c
        family.append([c / (j + d - 2) for c in cur])
    return tuple(
        GegenbauerPoly(d=d, k=k, coeffs=tuple(coeffs))
        for k, coeffs in enumerate(family[: k_max + 1])
    )


def gegenbauer(d: int, k: int) -> GegenbauerPoly:
    """Normalized degree-k Gegenbauer polynomial for S^d: the last member of its family."""
    return gegenbauer_family(d, k)[-1]
