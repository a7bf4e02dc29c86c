"""Spherical-harmonic dimensions, normalized Gegenbauer polynomials and the quadratic bound.

The polynomials here are the ultraspherical family C_k^lambda with
lambda = (d-1)/2 for points on S^d, normalized so that the value at t = 1
is exactly 1 (the Chebyshev T_k on the circle, d = 1).  They come from one
three-term recurrence that keeps this normalization at every step, for
every d >= 1.  Under this normalization the degree-k polynomial gives the
inner product of degree-k reproducing-kernel elements attached to two
sphere points with inner product t.  The recurrence runs on integers over
one denominator per degree: gegenbauer keeps the member it returns as that
integer row, whose Fraction coefficients are built only when read, and
gegenbauer_rows runs it at many rational points over one common
denominator, one list of numerators per degree, with no coefficients.

The p/q token parser, the quadratic lower bound on antipodal-code
coherence and the a/den token writer live here too, beside the dimensions
they are read with: this module imports nothing from the package, so `scan`
and `bound` load no embedding or certificate code.  codes and embedding
import them back under their old names.  What builds a Fraction here, in
embedding or in codes builds it through _fraction, which imports fractions
when it runs: a run that writes its numbers as _token text never loads it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable


def parse_rational(token: str) -> Fraction:
    """A p/q (or plain decimal) token as a Fraction; malformed tokens are a ValueError.

    Exponent notation is rejected: 1e29999999 would expand to a huge integer.
    So are non-ASCII digits and `_` separators, which Fraction() would read.
    So is whitespace inside a token, which Fraction() reads around the slash from Python 3.12 on.
    """
    if not token.isascii() or "_" in token or len(token.split()) > 1:
        raise ValueError(f"bad rational token {token!r}")
    if "e" in token or "E" in token:
        raise ValueError(f"exponent notation is not accepted: {token!r}")
    try:
        return _fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational token {token!r}") from exc


def _fraction(*args) -> Fraction:
    """Fraction(*args), with fractions imported only when one is built."""
    from fractions import Fraction
    return Fraction(*args)


def _token(a: int, den: int) -> str:
    """str(Fraction(a, den)) for den > 0, with no Fraction built."""
    g = math.gcd(a, den)
    return str(a // g) if g == den else f"{a // g}/{den // g}"


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

    row holds k+1 unreduced integer coefficients over den > 0, constant term
    first, and coeffs is their Fraction view.  Only every other coefficient
    can be nonzero (the polynomial has the parity of its degree).
    """

    def __init__(self, row: list[int], den: int) -> None:
        self.row, self.den = row, den
        # Powers k-1, k-3, ... must vanish; the rest then sum to the value at
        # t = 1, which is 0 for an empty row.
        if any(row[-2::-2]):
            raise ValueError("coefficient of the wrong parity for the degree")
        if sum(row[::-2]) != den:
            raise ValueError("polynomial is not normalized at t = 1")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(_fraction(c, self.den) for c in self.row)

    def evaluate(self, t: int | Fraction) -> Fraction:
        """Exact Horner evaluation over the row, divided by den once."""
        t = _fraction(t)
        acc = _fraction(0)
        for c in reversed(self.row):
            acc = acc * t + c
        return acc / self.den


def gegenbauer(d: int, k: int) -> GegenbauerPoly:
    """Normalized degree-k Gegenbauer polynomial for S^d, P_k = row / den, from one run of its family.

    The normalized family's recurrence (j+d-2) P_j = (2j+d-3) t P_{j-1} - (j-1) P_{j-2},
    from P_0 = 1 and P_1 = t, runs on integers as in gegenbauer_rows:
    a_j = (2j+d-3) t a_{j-1} - (j-1)(j+d-3) a_{j-2} over D_j = D_{j-1} (j+d-2),
    the factor j+d-3 read as 1 at j = 2.  Every P_j is 1 at t = 1 by
    construction, and at d = 1 this is Chebyshev's T_j = 2t T_{j-1} - T_{j-2}.
    Only the last two rows stay alive: unreduced rows grow as D_j does.  Of
    the family only P_k is checked.
    """
    if d < 1:
        raise ValueError("sphere dimension must be >= 1")
    if k < 0:
        raise ValueError("degree must be >= 0")
    row, den = [1], 1
    if k:
        prev, row = row, [0, 1]
    for j in range(2, k + 1):
        a, b = 2 * j + d - 3, (j - 1) * (j + d - 3 if j > 2 else 1)
        prev, row = row, [a * x - b * y for x, y in zip([0, *row], [*prev, 0, 0])]
        den *= j + d - 2
    return GegenbauerPoly(row, den)


def gegenbauer_rows(
    d: int, nums: Iterable[int], den: int, degrees: Iterable[int]
) -> list[tuple[list[int], int]]:
    """P_k(t_i) for S^d at every t_i = nums[i]/den, for each k in degrees: one run of the recurrence.

    At t = p/q the family's recurrence keeps a_j over q^j d(d+1)...(j+d-2):
    a_0 = 1, a_1 = p, a_j = (2j+d-3) p a_{j-1} - (j-1)(j+d-3) q^2 a_{j-2}, the
    factor j+d-3 read as 1 at j = 2.  With q = den shared, each degree is one
    list of numerators, unreduced, over one denominator.  That denominator
    grows as den^k: scanning the 60 values 1/p over the odd primes p < 290 for
    k = 1..12 on S^23 took 6.2-10.7 ms, against 2.4-4.4 ms point by point
    (2 vCPUs, Python 3.11.7); lattice spectra share small denominators (E8's
    lcm is 2).  It raises as gegenbauer does, the sphere first, for any points.
    """
    if d < 1:
        raise ValueError("sphere dimension must be >= 1")
    degrees = list(degrees)
    if min(degrees, default=0) < 0:
        raise ValueError("degree must be >= 0")
    nums = list(nums)
    rows, dens, qq = [[1] * len(nums), nums], [1, den], den * den
    for j in range(2, max(degrees, default=0) + 1):
        a, b = 2 * j + d - 3, (j - 1) * (j + d - 3 if j > 2 else 1) * qq
        rows.append([a * p * x - b * y for p, x, y in zip(nums, rows[-1], rows[-2])])
        dens.append(dens[-1] * den * (j + d - 2))
    return [(rows[k], dens[k]) for k in degrees]


class QuadraticBound(namedtuple("QuadraticBound", "num den")):
    """Lower bound a_min on antipodal-code coherence, kept exact as a_min^2 = num/den >= 0, den > 0."""

    __slots__ = ()

    @property
    def root(self) -> tuple[int, int] | None:
        """The rational square root of num/den in lowest terms as (p, q), or None when it is irrational."""
        g = math.gcd(self.num, self.den)
        p, q = math.isqrt(self.num // g), math.isqrt(self.den // g)
        return (p, q) if p * p * g == self.num and q * q * g == self.den else None

    @property
    def value(self) -> Fraction | None:
        """The rational square root of num/den, or None when the bound is irrational."""
        return None if (root := self.root) is None else _fraction(*root)


def quadratic_bound(n: int, dim: int) -> QuadraticBound:
    """Smallest possible coherence of an antipodal n-point code in dim dimensions.

    From sum (y_i,y_j)^2 >= n^2/dim the diagonal and antipodal pairs each
    contribute n, leaving n(n-2) ordered pairs to average at least
    (n^2/dim - 2n)/(n(n-2)) = (n - 2 dim)/(dim (n-2)).  The record keeps that
    average, clamped at zero, as a_min^2 = num/den; its value is the
    rational square root, if any.
    """
    if n % 2 != 0:
        raise ValueError("antipodal codes have an even number of points")
    if n < 4:
        raise ValueError("need at least two antipodal pairs")
    if dim < 1:
        raise ValueError("dimension must be positive")
    return QuadraticBound(max(0, n - 2 * dim), dim * (n - 2))


def format_bound(bound: QuadraticBound) -> str:
    root = bound.root
    return f"sqrt({_token(bound.num, bound.den)})" if root is None else _token(*root)
