"""Degree-2 harmonic embedding of equinorm codes as traceless matrices.

A sphere point x is sent to M_x = (x x^T)/|x|^2 - I/(d+1), a traceless
symmetric matrix with rational entries whenever x has integer scaled
coordinates.  Flattened over one common denominator they are integer
vectors whose normalized dot products are the degree-2 Gegenbauer value
g2 of the source inner product, so the E8 image is an antipodal code with
all non-antipodal inner products 1/7 in absolute value.  A built code takes
its Gram values from integer dot products, and the float export writes
each point's coordinates in closed form from its integer vector; the
explicit matrices (embed_degree2) are the tests' independent witness.

The matrix model lives here too, as plain tuples of Fraction rows, with its
integer flattening (_integer_flat, as acceptance criterion 05 uses it) and
the p/q token parser; malformed input raises ValueError.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property

from .harmonics import gegenbauer_values, harmonic_dimension
from .lattice import LatticeCode, scaled_dot, select_antipodal_representatives, spectrum


def parse_rational(token: str) -> Fraction:
    """A p/q (or plain decimal) token as a Fraction; malformed tokens are a ValueError.

    Exponent notation is rejected: 1e29999999 would expand to a huge integer.
    """
    if "e" in token or "E" in token:
        raise ValueError(f"exponent notation is not accepted: {token!r}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational token {token!r}") from exc


# A matrix as its tuple of Fraction rows: the exact Gram and the degree-2 images.
Rows = tuple[tuple[Fraction, ...], ...]


class EmbeddedCode:
    """Degree-2 image of an antipodal equinorm code, held as its representatives.

    Point i < N is the image of reps.points[i] and point i + N is its sign
    flip, so the 2N x 2N Gram is [[B, -B], [-B, B]] with B[i][j] the kernel
    value g2 of the i-th and j-th representatives' inner product.  Certificates
    read only n and histogram; the exact gram is built on first access.
    """

    def __init__(self, reps: LatticeCode) -> None:
        self.reps = reps

    @property
    def n(self) -> int:
        return 2 * len(self.reps)

    def __len__(self) -> int:
        return self.n

    @property
    def ambient_harmonic_dim(self) -> int:
        return harmonic_dimension(self.reps.ambient_dim - 1, 2)

    def kernel(self, t: Fraction) -> Fraction:
        """g2(t) = (m t^2 - 1)/(m - 1), the Gram value of inner product t."""
        (value,) = gegenbauer_values(self.reps.ambient_dim - 1, t, [2])
        return value

    @cached_property
    def histogram(self) -> Counter:
        """Gram value counts over ordered pairs of distinct points: the Gram spectrum.

        The antipodal pairs give n entries -1; each ordered representative
        pair at inner product t (spectrum counts ordered pairs) appears twice
        as +g2(t) and twice as -g2(t).
        """
        counts = Counter({Fraction(-1): self.n})
        for t, c in spectrum(self.reps).items():
            v = self.kernel(t)
            counts[v] += 2 * c
            counts[-v] += 2 * c
        return counts

    @cached_property
    def gram(self) -> Rows:
        """The exact 2N x 2N Gram, through one map from integer dot products to g2."""
        pts, norm = self.reps.points, self.reps.norm_sq_scaled
        dots = [[scaled_dot(p, q) for q in pts] for p in pts]
        plus = {s: self.kernel(Fraction(s, norm)) for s in set().union(*dots)}
        minus = {s: -v for s, v in plus.items()}
        top = tuple(tuple([plus[s] for s in row] + [minus[s] for s in row]) for row in dots)
        bottom = tuple(tuple([minus[s] for s in row] + [plus[s] for s in row]) for row in dots)
        return top + bottom


def embed_degree2(code: LatticeCode, index: int) -> Rows:
    """Matrix model M_x of the degree-2 kernel element at one code point.

    Depends only on +-x, so antipodal source points share one matrix.
    """
    if code.ambient_dim < 2:
        raise ValueError("ambient dimension must be at least 2")
    if not 0 <= index < len(code):
        raise IndexError(f"point index {index} out of range")
    p = code.points[index]
    n = code.norm_sq_scaled
    m = code.ambient_dim
    return tuple(
        tuple(
            Fraction(p[i] * p[j], n) - (Fraction(1, m) if i == j else 0)
            for j in range(m)
        )
        for i in range(m)
    )


def _integer_flat(matrix: Rows, denom: int) -> tuple[int, ...]:
    """Entries of denom * matrix flattened row-major; denom clears them all."""
    flat = []
    for row in matrix:
        for x in row:
            scaled = x * denom
            if scaled.denominator != 1:
                raise ValueError("common denominator does not clear entries")
            flat.append(scaled.numerator)
    return tuple(flat)


def build_code(roots: LatticeCode) -> EmbeddedCode:
    """Embed an antipodal equinorm code, kept as one point per antipodal pair."""
    reps = select_antipodal_representatives(roots)
    if not reps.points:
        raise ValueError("code has no points to embed")
    if reps.ambient_dim < 2:
        raise ValueError("ambient dimension must be at least 2")
    return EmbeddedCode(reps)


def flatten_coordinates(code: LatticeCode, index: int) -> list[float]:
    """Unit coordinate vector of M_x, x = code.points[index], in an orthonormal basis.

    Basis of the traceless symmetric matrices of order m: the off-diagonal
    units (e_i e_j^T + e_j e_i^T)/sqrt(2) for i < j, then the diagonal
    chain diag(1,...,1,-r,0,...,0)/sqrt(r(r+1)) for r = 1..m-1.  With
    p = x scaled to integers and n = |p|^2, the -I/m term cancels in every
    coordinate and |M_x|^2 = (m - 1)/m, so each coordinate is an integer
    ratio over one norm.  Output length is m(m+1)/2 - 1; the Euclidean norm
    is 1 up to float rounding.
    """
    p = code.points[index]
    n = code.norm_sq_scaled
    m = code.ambient_dim
    norm = math.sqrt((m - 1) / m)
    coords = []
    for i in range(m):
        for j in range(i + 1, m):
            coords.append(math.sqrt(2.0) * (p[i] * p[j] / n) / norm)
    partial = 0
    for r in range(1, m):
        partial += p[r - 1] * p[r - 1]
        coords.append(((partial - r * p[r] * p[r]) / n) / (math.sqrt(r * (r + 1)) * norm))
    return coords


# --- export formats ---------------------------------------------------------


def float_code_to_text(code: EmbeddedCode) -> str:
    """Header `dim N float`, then one row of 17-significant-digit floats per point.

    The N representative rows come first, then the same rows negated.
    """
    rows = [flatten_coordinates(code.reps, i) for i in range(len(code.reps))]
    out = io.StringIO()
    out.write(f"{code.ambient_harmonic_dim} {len(code)} float\n")
    for sign in (1, -1):
        for row in rows:
            out.write(" ".join(f"{sign * x:.17g}" for x in row) + "\n")
    return out.getvalue()


def gram_to_text(gram: Rows) -> str:
    """Header `N`, then N lines of N exact rational tokens."""
    out = io.StringIO()
    out.write(f"{len(gram)}\n")
    for row in gram:
        out.write(" ".join(str(x) for x in row) + "\n")
    return out.getvalue()


def gram_from_text(text: str) -> Rows:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty gram file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"bad gram header {lines[0]!r}") from exc
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} gram rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            row = tuple(parse_rational(tok) for tok in line.split())
        except ValueError as exc:
            raise ValueError("bad rational token in gram row") from exc
        if len(row) != n:
            raise ValueError("gram row has wrong length")
        rows.append(row)
    return tuple(rows)
