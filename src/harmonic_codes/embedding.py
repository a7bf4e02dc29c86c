"""Degree-2 harmonic embedding of equinorm codes as traceless matrices.

A sphere point x is sent to M_x = (x x^T)/|x|^2 - I/(d+1), a traceless
symmetric matrix with rational entries whenever x has integer scaled
coordinates.  Normalized Frobenius inner products of these matrices
reproduce the degree-2 Gegenbauer value of the original inner product,
which is what makes the E8 image an antipodal code with all non-antipodal
inner products of absolute value 1/7.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .exact import DimensionError, Rational, StructureError, SymMatrix, frobenius_inner
from .harmonics import harmonic_dimension
from .lattice import LatticeCode, select_antipodal_representatives


@dataclass(frozen=True)
class EmbeddedPoint:
    """A signed traceless symmetric matrix modelling one embedded point.

    The sign flag distinguishes the embedding of a source point (+1) from
    its formal negation (-1); the negated matrix itself is not the image
    of any sphere point.
    """

    matrix: SymMatrix
    source_index: int | None
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise StructureError("sign must be +1 or -1")
        if self.matrix.trace() != 0:
            raise StructureError("matrix must be traceless")


@dataclass(frozen=True)
class EmbeddedCode:
    """Embedded antipodal code with its exact normalized Gram matrix."""

    ambient_harmonic_dim: int
    points: tuple[EmbeddedPoint, ...]
    gram: tuple[tuple[Rational, ...], ...]

    def __len__(self) -> int:
        return len(self.points)


def embed_degree2(code: LatticeCode, index: int) -> EmbeddedPoint:
    """Matrix model M_x of the degree-2 kernel element at one code point.

    Depends only on +-x, so antipodal source points share one matrix.
    """
    if code.ambient_dim < 2:
        raise StructureError("ambient dimension must be at least 2")
    if not 0 <= index < len(code):
        raise IndexError(f"point index {index} out of range")
    p = code.points[index]
    n = code.norm_sq_scaled
    m = code.ambient_dim
    entries = tuple(
        tuple(
            Fraction(p[i] * p[j], n) - (Fraction(1, m) if i == j else 0)
            for j in range(m)
        )
        for i in range(m)
    )
    return EmbeddedPoint(matrix=SymMatrix(entries), source_index=index, sign=1)


def normalized_inner(a: EmbeddedPoint, b: EmbeddedPoint) -> Rational:
    """Signed Frobenius inner product, normalized to 1 on the diagonal."""
    if a.matrix.order != b.matrix.order:
        raise DimensionError("matrix orders differ")
    return (
        a.sign
        * b.sign
        * frobenius_inner(a.matrix, b.matrix)
        / frobenius_inner(a.matrix, a.matrix)
    )


def _integer_flat(point: EmbeddedPoint, denom: int) -> tuple[int, ...]:
    """Entries of denom * matrix flattened row-major; denom clears them all."""
    flat = []
    for row in point.matrix.entries:
        for x in row:
            scaled = x * denom
            if scaled.denominator != 1:
                raise StructureError("common denominator does not clear entries")
            flat.append(scaled.numerator)
    return tuple(flat)


def _base_gram(flats: list[tuple[int, ...]]) -> list[list[int]]:
    """Full square of pairwise integer Frobenius sums, exact."""
    n = len(flats)
    full = [[0] * n for _ in range(n)]
    for i, a in enumerate(flats):
        for j in range(i, n):
            full[i][j] = full[j][i] = sum(x * y for x, y in zip(a, flats[j]))
    return full


def build_code(roots: LatticeCode) -> EmbeddedCode:
    """Embed an antipodal equinorm code and attach the 2N x 2N exact Gram.

    One representative per antipodal pair is embedded; the full point list
    is the 120 images followed by their sign-flipped copies (for E8).
    Gram entries are Frobenius sums computed over a common denominator, so
    the whole matrix is exact.
    """
    reps = select_antipodal_representatives(roots)
    if not reps.points:
        raise StructureError("code has no points to embed")
    embedded = [embed_degree2(reps, i) for i in range(len(reps))]
    denom = reps.norm_sq_scaled * reps.ambient_dim
    flats = [_integer_flat(pt, denom) for pt in embedded]
    raw = _base_gram(flats)
    norm = raw[0][0]
    for i in range(len(reps)):
        if raw[i][i] != norm:
            raise StructureError("embedded points are not equinorm")
    base = [[Fraction(raw[i][j], norm) for j in range(len(reps))] for i in range(len(reps))]
    neg = [[-x for x in row] for row in base]
    points = tuple(embedded) + tuple(
        EmbeddedPoint(matrix=pt.matrix, source_index=pt.source_index, sign=-1)
        for pt in embedded
    )
    gram = tuple(
        tuple(base[i] + neg[i]) for i in range(len(reps))
    ) + tuple(
        tuple(neg[i] + base[i]) for i in range(len(reps))
    )
    return EmbeddedCode(
        ambient_harmonic_dim=harmonic_dimension(reps.ambient_dim - 1, 2),
        points=points,
        gram=gram,
    )


def flatten_coordinates(p: EmbeddedPoint) -> List[float]:
    """Unit coordinate vector of the signed matrix in an orthonormal basis.

    Basis of the traceless symmetric matrices of order m: the off-diagonal
    units (e_i e_j^T + e_j e_i^T)/sqrt(2) for i < j, then the diagonal
    chain diag(1,...,1,-r,0,...,0)/sqrt(r(r+1)) for r = 1..m-1.  Output
    length is m(m+1)/2 - 1; the Euclidean norm is 1 up to float rounding.
    """
    mat = p.matrix.entries
    m = p.matrix.order
    norm = math.sqrt(float(frobenius_inner(p.matrix, p.matrix)))
    coords = []
    for i in range(m):
        for j in range(i + 1, m):
            coords.append(p.sign * math.sqrt(2.0) * float(mat[i][j]) / norm)
    diag_partial = Fraction(0)
    for r in range(1, m):
        diag_partial += mat[r - 1][r - 1]
        value = diag_partial - r * mat[r][r]
        coords.append(p.sign * float(value) / (math.sqrt(r * (r + 1)) * norm))
    return coords


# --- export formats ---------------------------------------------------------


def float_code_to_text(code: EmbeddedCode) -> str:
    """Header `dim N float`, then one row of 17-significant-digit floats per point."""
    out = io.StringIO()
    out.write(f"{code.ambient_harmonic_dim} {len(code)} float\n")
    for pt in code.points:
        out.write(" ".join(f"{x:.17g}" for x in flatten_coordinates(pt)) + "\n")
    return out.getvalue()


def gram_to_text(gram: tuple[tuple[Rational, ...], ...]) -> str:
    """Header `N`, then N lines of N exact rational tokens."""
    out = io.StringIO()
    out.write(f"{len(gram)}\n")
    for row in gram:
        out.write(" ".join(str(x) for x in row) + "\n")
    return out.getvalue()


def gram_from_text(text: str) -> tuple[tuple[Rational, ...], ...]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise StructureError("empty gram file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise StructureError(f"bad gram header {lines[0]!r}") from exc
    if len(lines) != n + 1:
        raise StructureError(f"expected {n} gram rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            row = tuple(Fraction(tok) for tok in line.split())
        except (ValueError, ZeroDivisionError) as exc:
            raise StructureError("bad rational token in gram row") from exc
        if len(row) != n:
            raise StructureError("gram row has wrong length")
        rows.append(row)
    return tuple(rows)
