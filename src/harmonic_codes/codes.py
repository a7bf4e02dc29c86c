"""Certification of antipodal spherical codes through exact Gram matrices.

Every certificate here is a fold over one value histogram of a rational
Gram matrix: coherence, the tight-frame inequality and design strength via
vanishing Gegenbauer moment sums, next to the closed-form lower bound on
coherence for antipodal codes.  The optimality verdict is the exact
comparison of achieved coherence against the bound.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .exact import DomainError, Rational, StructureError
from .embedding import EmbeddedCode
from .harmonics import gegenbauer
from .lattice import LatticeCode, Spectrum


@dataclass(frozen=True)
class GramView:
    """Symmetric unit-diagonal Rational matrix, optionally with an antipode map.

    antipode[i] = j means points i and j are formal negatives of each
    other; such pairs are excluded from coherence.
    """

    entries: tuple[tuple[Rational, ...], ...]
    antipode: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.entries)
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise StructureError("gram matrix is not square")
            if row[i] != 1:
                raise StructureError(f"diagonal entry {i} is not 1")
        for i in range(n):
            for j in range(i + 1, n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise StructureError(f"gram entries ({i},{j}) and ({j},{i}) differ")
        if self.antipode is not None:
            if len(self.antipode) != n:
                raise StructureError("antipode map has wrong length")
            for i, j in enumerate(self.antipode):
                if j == i or self.antipode[j] != i:
                    raise StructureError(f"antipode map is not a fixed-point-free involution at {i}")
                if self.entries[i][j] != -1:
                    raise StructureError(f"antipodal pair ({i},{j}) has gram entry != -1")

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def histogram(self) -> Counter:
        """Value counts over all ordered pairs, diagonal included.

        The only walk over the entries after validation: the upper triangle
        is counted once and doubled (symmetry is already proved), then the
        n unit diagonal entries are added.
        """
        counts: Counter = Counter()
        for i, row in enumerate(self.entries):
            counts.update(row[i + 1:])
        for v in counts:
            counts[v] *= 2
        if self.n:
            counts[Fraction(1)] += self.n
        return counts

    def off_diagonal(self, include_antipodal: bool = True) -> Counter:
        """Histogram without the n diagonal 1s and, optionally, the n antipodal -1s.

        Exact because __post_init__ proved every diagonal entry is 1 and
        every antipodal entry is -1.
        """
        counts = self.histogram.copy()
        counts[Fraction(1)] -= self.n
        if not include_antipodal and self.antipode is not None:
            counts[Fraction(-1)] -= self.n
        return +counts


class FrameCheck(NamedTuple):
    frame_sum: Rational
    frame_bound: Rational
    satisfied: bool


@dataclass(frozen=True)
class QuadraticBound:
    """Lower bound a_min on antipodal-code coherence, kept exact.

    a_min^2 = radicand always; value is the rational square root when one
    exists, otherwise None (the bound is irrational).
    """

    radicand: Rational
    exact: bool
    value: Rational | None


class DesignCheck(NamedTuple):
    strength: int
    residuals: tuple[Rational, ...]


@dataclass(frozen=True)
class CodeReport:
    """Certified parameters of an embedded antipodal code."""

    ambient_dim: int
    n_points: int
    coherence_a: Rational
    spectrum: Spectrum
    lower_bound_a: Rational | None
    bound_radicand: Rational
    frame_sum: Rational
    frame_bound: Rational
    design_strength: int
    optimal_antipodal: bool


def gram_from_embedded(code: EmbeddedCode) -> GramView:
    """Gram view of an embedded code, pairing each point with its sign flip."""
    positions: dict[tuple[int | None, int], int] = {}
    for idx, pt in enumerate(code.points):
        if pt.source_index is None:
            raise StructureError("free-sign point has no antipode partner")
        key = (pt.source_index, pt.sign)
        if key in positions:
            raise StructureError(f"duplicate signed point for source {pt.source_index}")
        positions[key] = idx
    antipode = []
    for pt in code.points:
        partner = positions.get((pt.source_index, -pt.sign))
        if partner is None:
            raise StructureError(f"point with source {pt.source_index} has no sign-flipped partner")
        antipode.append(partner)
    return GramView(entries=code.gram, antipode=tuple(antipode))


def gram_from_lattice(code: LatticeCode) -> GramView:
    """Exact normalized Gram of an integer code, with pairing when antipodal."""
    values: dict[int, Fraction] = {}

    def normalized(s: int) -> Fraction:
        if s not in values:
            values[s] = Fraction(s, code.norm_sq_scaled)
        return values[s]

    pts = code.points
    entries = tuple(
        tuple(normalized(sum(a * b for a, b in zip(p, q))) for q in pts)
        for p in pts
    )
    antipode = None
    if code.is_antipodal():
        index = {p: i for i, p in enumerate(pts)}
        antipode = tuple(index[tuple(-c for c in p)] for p in pts)
    return GramView(entries=entries, antipode=antipode)


def gram_spectrum(g: GramView) -> Spectrum:
    """Value counts over ordered distinct pairs."""
    counts = g.off_diagonal()
    return {v: counts[v] for v in sorted(counts)}


def max_coherence(g: GramView, include_antipodal: bool = False) -> Rational:
    """Largest |gram entry| over distinct pairs, skipping antipodal ones."""
    counts = g.off_diagonal(include_antipodal)
    if not counts:
        raise DomainError("no admissible pair to take coherence over")
    return max(abs(v) for v in counts)


def frame_bound_check(g: GramView, dim: int) -> FrameCheck:
    """Compare the squared-entry sum of the Gram against n^2/dim, exactly.

    The sum runs over all ordered pairs including the diagonal; for any
    set of n unit vectors spanning at most dim dimensions it is >= n^2/dim,
    with equality exactly for tight frames.
    """
    if dim < 1:
        raise DomainError("dimension must be positive")
    frame_sum = sum((v * v * c for v, c in g.histogram.items()), Fraction(0))
    frame_bound = Fraction(g.n * g.n, dim)
    return FrameCheck(frame_sum, frame_bound, frame_sum >= frame_bound)


def _rational_sqrt(q: Rational) -> Rational | None:
    """Exact nonnegative square root, or None when q is not a rational square."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def quadratic_bound(n: int, dim: int) -> QuadraticBound:
    """Smallest possible coherence of an antipodal n-point code in dim dimensions.

    From sum (y_i,y_j)^2 >= n^2/dim the diagonal and antipodal pairs each
    contribute n, leaving n(n-2) ordered pairs to average at least
    (n^2/dim - 2n)/(n(n-2)); the bound is the square root of that average,
    clamped at zero.
    """
    if n % 2 != 0:
        raise StructureError("antipodal codes have an even number of points")
    if n < 4:
        raise DomainError("need at least two antipodal pairs")
    if dim < 1:
        raise DomainError("dimension must be positive")
    radicand = max(Fraction(0), (Fraction(n, dim) - 2) / (n - 2))
    root = _rational_sqrt(radicand)
    return QuadraticBound(radicand=radicand, exact=root is not None, value=root)


def design_strength(g: GramView, d_sphere: int, t_max: int) -> DesignCheck:
    """Largest t <= t_max with vanishing Gegenbauer moment sums for k = 1..t.

    The k-th residual is sum over all ordered pairs (diagonal included) of
    g_k^{d_sphere} at the gram entries; a spherical t-design makes the
    first t residuals exactly zero.
    """
    if t_max < 1:
        raise DomainError("t_max must be at least 1")
    residuals = []
    for k in range(1, t_max + 1):
        poly = gegenbauer(d_sphere, k)
        residuals.append(
            sum((c * poly.evaluate(v) for v, c in g.histogram.items()), Fraction(0))
        )
    strength = 0
    for r in residuals:
        if r != 0:
            break
        strength += 1
    return DesignCheck(strength=strength, residuals=tuple(residuals))


def certify(code: EmbeddedCode, t_max: int = 3) -> CodeReport:
    """Full certificate for an embedded antipodal code.

    The verdict is exact: the code is optimal among antipodal codes of the
    same size and dimension iff its coherence squared equals the bound's
    radicand.
    """
    g = gram_from_embedded(code)
    dim = code.ambient_harmonic_dim
    coherence = max_coherence(g)
    bound = quadratic_bound(g.n, dim)
    frame = frame_bound_check(g, dim)
    design = design_strength(g, dim - 1, t_max)
    return CodeReport(
        ambient_dim=dim,
        n_points=g.n,
        coherence_a=coherence,
        spectrum=gram_spectrum(g),
        lower_bound_a=bound.value,
        bound_radicand=bound.radicand,
        frame_sum=frame.frame_sum,
        frame_bound=frame.frame_bound,
        design_strength=design.strength,
        optimal_antipodal=coherence * coherence == bound.radicand,
    )


# --- report serialization ---------------------------------------------------


def format_rational(q: Rational) -> str:
    return str(q)


def format_bound(value: Rational | None, radicand: Rational) -> str:
    if value is not None:
        return str(value)
    return f"sqrt({radicand})"


def report_to_dict(report: CodeReport) -> dict:
    return {
        "ambient_dim": report.ambient_dim,
        "n_points": report.n_points,
        "coherence": format_rational(report.coherence_a),
        "spectrum": {
            format_rational(v): report.spectrum[v] for v in sorted(report.spectrum)
        },
        "bound": format_bound(report.lower_bound_a, report.bound_radicand),
        "frame_sum": format_rational(report.frame_sum),
        "frame_bound": format_rational(report.frame_bound),
        "design_strength": report.design_strength,
        "optimal_antipodal": report.optimal_antipodal,
    }


def report_to_json(report: CodeReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"
