"""Degree-2 harmonic embedding of equinorm codes as traceless matrices.

A sphere point x is sent to M_x = (x x^T)/|x|^2 - I/(d+1), a traceless
symmetric matrix with rational entries whenever x has integer scaled
coordinates.  Flattened over one common denominator they are integer
vectors whose normalized dot products are the degree-2 Gegenbauer value
g2 of the source inner product, so the E8 image is an antipodal code with
all non-antipodal inner products 1/7 in absolute value.  A built code takes
its Gram values from integer dot products: the histogram from the lattice
spectrum, the exact Gram from each row of lattice.dot_fields through one
shared Fraction per distinct dot.  The float export writes each coordinate
in closed form from an integer key (p_i p_j off the diagonal), formatting
each distinct key once; the explicit matrices (embed_degree2) are the
tests' independent witness.

The matrix model lives here too, as plain tuples of Fraction rows, with its
integer flattening (_integer_flat, as acceptance criterion 05 uses it) and
the p/q token parser; malformed input raises ValueError.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .harmonics import gegenbauer_values, harmonic_dimension
from .lattice import LatticeCode, dot_fields, select_antipodal_representatives, spectrum


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
        """The exact 2N x 2N Gram: each row of packed dot fields through two kernel tables.

        The tables map each distinct field key to one shared Fraction, +g2 and
        -g2 of its dot; each half-row is built once and serves the top row
        [B, -B] and the bottom row [-B, B].
        """
        dot, rows = dot_fields(self.reps)
        rows, norm = list(rows), self.reps.norm_sq_scaled
        plus = {key: self.kernel(Fraction(dot(key), norm)) for key in set().union(*rows)}
        minus = {key: -v for key, v in plus.items()}
        top, bottom = [], []
        for row in rows:
            b, minus_b = list(map(plus.__getitem__, row)), list(map(minus.__getitem__, row))
            top.append(tuple(b + minus_b))
            bottom.append(tuple(minus_b + b))
        return tuple(top + bottom)


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


def _coordinate_keys(p: tuple[int, ...]) -> list:
    """The integers each coordinate of M_x is a closed form of (see flatten_coordinates).

    Off the diagonal, coordinate (i, j) depends only on p_i p_j; on it, chain
    element r depends only on (s, r), s = sum_{k<r} p_k^2 - r p_r^2.
    """
    keys = [a * b for a, b in combinations(p, 2)]
    partial = 0
    for r in range(1, len(p)):
        partial += p[r - 1] * p[r - 1]
        keys.append((partial - r * p[r] * p[r], r))
    return keys


def _coordinate(key, n: int, norm: float) -> float:
    """The closed form of one coordinate from its key over the norms n = |p|^2 and |M_x|."""
    if isinstance(key, tuple):
        s, r = key
        return (s / n) / (math.sqrt(r * (r + 1)) * norm)
    return math.sqrt(2.0) * (key / n) / norm


def flatten_coordinates(code: LatticeCode, index: int) -> list[float]:
    """Unit coordinate vector of M_x, x = code.points[index], in an orthonormal basis.

    Basis of the traceless symmetric matrices of order m: the off-diagonal
    units (e_i e_j^T + e_j e_i^T)/sqrt(2) for i < j, then the diagonal
    chain diag(1,...,1,-r,0,...,0)/sqrt(r(r+1)) for r = 1..m-1.  With
    p = x scaled to integers and n = |p|^2, the -I/m term cancels in every
    coordinate and |M_x|^2 = (m - 1)/m, so each coordinate is an integer
    ratio over one norm.  Output length is m(m+1)/2 - 1; the Euclidean norm
    is 1 up to float rounding.  float_code_to_text writes the same closed
    forms; this is its witness.
    """
    n, m = code.norm_sq_scaled, code.ambient_dim
    norm = math.sqrt((m - 1) / m)
    return [_coordinate(key, n, norm) for key in _coordinate_keys(code.points[index])]


# --- export formats ---------------------------------------------------------


def float_code_to_text(code: EmbeddedCode) -> str:
    """Header `dim N float`, then one row of 17-significant-digit floats per point.

    The N representative rows come first, then the same rows negated.  Each
    distinct coordinate key is formatted once; its negation toggles the
    token's leading `-`, which is how `.17g` writes -x (0 gives -0).
    """
    reps = code.reps
    n, m = reps.norm_sq_scaled, reps.ambient_dim
    norm = math.sqrt((m - 1) / m)
    rows = [_coordinate_keys(p) for p in reps.points]
    plus = {key: f"{_coordinate(key, n, norm):.17g}" for key in set().union(*rows)}
    minus = {key: t[1:] if t[0] == "-" else "-" + t for key, t in plus.items()}
    lines = [f"{code.ambient_harmonic_dim} {len(code)} float"]
    for tokens in (plus, minus):
        lines += [" ".join(map(tokens.__getitem__, row)) for row in rows]
    return "\n".join(lines) + "\n"


def gram_to_text(gram: Rows) -> str:
    """Header `N`, then N lines of N exact rational tokens."""
    lines = [str(len(gram))]
    lines += [" ".join([str(x) for x in row]) for row in gram]
    return "\n".join(lines) + "\n"


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
    rows, parsed = [], {}  # one Fraction per distinct token
    for line in lines[1:]:
        tokens = line.split()
        try:
            for tok in dict.fromkeys(tokens):
                if tok not in parsed:
                    parsed[tok] = parse_rational(tok)
        except ValueError as exc:
            raise ValueError("bad rational token in gram row") from exc
        row = tuple(map(parsed.__getitem__, tokens))
        if len(row) != n:
            raise ValueError("gram row has wrong length")
        rows.append(row)
    return tuple(rows)
