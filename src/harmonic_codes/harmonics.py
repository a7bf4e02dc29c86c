"""Spherical-harmonic dimensions and normalized Gegenbauer polynomials.

The polynomials here are the ultraspherical family C_k^lambda with
lambda = (d-1)/2 for points on S^d, normalized so that the value at t = 1
is exactly 1 (the Chebyshev T_k on the circle, d = 1).  They come from one
three-term recurrence that keeps this normalization at every step, for
every d >= 1.  Under this normalization the degree-k polynomial gives the
inner product of degree-k reproducing-kernel elements attached to two
sphere points with inner product t.  gegenbauer_values runs the same
recurrence at a rational point, in integers, and builds no coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable


def harmonic_dimension(d: int, k: int) -> int:
    """Dimension of the space of degree-k spherical harmonics on S^d.

    Degree-k harmonics are the degree-k homogeneous polynomials in d+1
    variables modulo |x|^2 times those of degree k-2, so the dimension is
    C(d+k, d) - C(d+k-2, d).  By convention the degree-0 space (constants)
    has dimension 1.
    """
    if d < 1:
        raise ValueError("sphere dimension must be >= 1")
    if k < 0:
        raise ValueError("degree must be >= 0")
    if k == 0:
        return 1
    return math.comb(d + k, d) - math.comb(d + k - 2, d)


class GegenbauerPoly:
    """Degree-k Gegenbauer polynomial for S^d, normalized to 1 at t = 1.

    coeffs holds k+1 Fraction coefficients, constant term first.  Only
    every other coefficient can be nonzero (the polynomial has the parity
    of its degree).  The polynomial is its coefficients, so P_0 = 1 and
    P_1 = t of every S^d compare equal.
    """

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        self.coeffs = coeffs
        # Powers k-1, k-3, ... must vanish; the rest then sum to the value at
        # t = 1, which is 0 for an empty tuple.
        if any(self.coeffs[-2::-2]):
            raise ValueError("coefficient of the wrong parity for the degree")
        if sum(self.coeffs[::-2]) != 1:
            raise ValueError("polynomial is not normalized at t = 1")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GegenbauerPoly) and self.coeffs == other.coeffs

    @property
    def k(self) -> int:
        """The degree."""
        return len(self.coeffs) - 1

    def evaluate(self, t: int | Fraction) -> Fraction:
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
        raise ValueError("sphere dimension must be >= 1")
    if k_max < 0:
        raise ValueError("degree must be >= 0")
    family = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for j in range(2, k_max + 1):
        prev2, prev1 = family[-2], family[-1]
        cur = [Fraction(0)] + [(2 * j + d - 3) * c for c in prev1]
        for i, c in enumerate(prev2):
            cur[i] -= (j - 1) * c
        family.append([c / (j + d - 2) for c in cur])
    return tuple(GegenbauerPoly(coeffs=tuple(coeffs)) for coeffs in family[: k_max + 1])


def gegenbauer(d: int, k: int) -> GegenbauerPoly:
    """Normalized degree-k Gegenbauer polynomial for S^d: the last member of its family."""
    return gegenbauer_family(d, k)[-1]


def gegenbauer_values(d: int, t: int | Fraction, degrees: Iterable[int]) -> list[Fraction]:
    """P_k(t) for S^d at each k in degrees, from one run of the recurrence in integers.

    At t = p/q the family's recurrence keeps a_j over q^j d(d+1)...(j+d-2):
    a_0 = 1, a_1 = p, a_j = (2j+d-3) p a_{j-1} - (j-1)(j+d-3) q^2 a_{j-2}, the
    factor j+d-3 read as 1 at j = 2.  It raises as gegenbauer_family does.
    """
    if d < 1:
        raise ValueError("sphere dimension must be >= 1")
    degrees = list(degrees)
    if min(degrees, default=0) < 0:
        raise ValueError("degree must be >= 0")
    p, q = Fraction(t).as_integer_ratio()
    nums, dens = [1, p], [1, q]
    for j in range(2, max(degrees, default=0) + 1):
        step = j + d - 3 if j > 2 else 1
        nums.append((2 * j + d - 3) * p * nums[-1] - (j - 1) * step * q * q * nums[-2])
        dens.append(dens[-1] * q * (j + d - 2))
    return [Fraction(nums[k], dens[k]) for k in degrees]
