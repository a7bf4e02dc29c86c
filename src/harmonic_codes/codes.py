"""Certification of antipodal spherical codes through exact Gram values.

Every certificate here is a fold over one value histogram, of a validated
Gram matrix or of a built code's integer representative pairs: coherence,
the tight-frame inequality and design strength via vanishing Gegenbauer
moment sums, next to the closed-form lower bound on coherence for antipodal
codes.  The optimality verdict is the exact comparison of achieved
coherence against the bound.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .exact import DomainError, Rational, StructureError, SymMatrix
from .embedding import EmbeddedCode
# gegenbauer stays importable here: bench/run.py shims it by name.
from .harmonics import gegenbauer, gegenbauer_family
from .lattice import LatticeCode, Spectrum, scaled_dot


@dataclass(frozen=True)
class GramView(SymMatrix):
    """Symmetric unit-diagonal Rational matrix, optionally with an antipode map.

    antipode[i] = j means points i and j are formal negatives of each
    other; such pairs are excluded from coherence.
    """

    antipode: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for i, row in enumerate(self.entries):
            if row[i] != 1:
                raise StructureError(f"diagonal entry {i} is not 1")
        if self.antipode is not None:
            if len(self.antipode) != self.n:
                raise StructureError("antipode map has wrong length")
            for i, j in enumerate(self.antipode):
                if j == i or not 0 <= j < self.n or self.antipode[j] != i:
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
    """Validated Gram view of an embedded code, pairing each point with its sign flip."""
    return GramView(entries=code.gram, antipode=code.antipode)


def gram_from_lattice(code: LatticeCode) -> GramView:
    """Exact normalized Gram of an integer code, with pairing when antipodal."""
    pts = code.points
    dots = [[scaled_dot(p, q) for q in pts] for p in pts]
    values = {s: Fraction(s, code.norm_sq_scaled) for s in set().union(*dots)}
    entries = tuple(tuple(values[s] for s in row) for row in dots)
    antipode = None
    if code.is_antipodal():
        index = {p: i for i, p in enumerate(pts)}
        antipode = tuple(index[tuple(-c for c in p)] for p in pts)
    return GramView(entries=entries, antipode=antipode)


# The folds read g.n, g.histogram and g.antipode of a validated GramView or of
# a built EmbeddedCode, whose diagonal and antipodal entries are 1 and -1.
Histogrammed = GramView | EmbeddedCode


def _off_diagonal(g: Histogrammed, include_antipodal: bool = True) -> Counter:
    """Histogram without the n diagonal 1s and, optionally, the n antipodal -1s."""
    counts = g.histogram.copy()
    counts[Fraction(1)] -= g.n
    if not include_antipodal and g.antipode is not None:
        counts[Fraction(-1)] -= g.n
    return +counts


def gram_spectrum(g: Histogrammed) -> Spectrum:
    """Value counts over ordered distinct pairs."""
    counts = _off_diagonal(g)
    return {v: counts[v] for v in sorted(counts)}


def max_coherence(g: Histogrammed, include_antipodal: bool = False) -> Rational:
    """Largest |gram entry| over distinct pairs, skipping antipodal ones."""
    counts = _off_diagonal(g, include_antipodal)
    if not counts:
        raise DomainError("no admissible pair to take coherence over")
    return max(abs(v) for v in counts)


def frame_bound_check(g: Histogrammed, dim: int) -> FrameCheck:
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


def design_strength(g: Histogrammed, d_sphere: int, t_max: int) -> DesignCheck:
    """Largest t <= t_max with vanishing Gegenbauer moment sums for k = 1..t.

    The k-th residual is sum over all ordered pairs (diagonal included) of
    g_k^{d_sphere} at the gram entries; a spherical t-design makes the
    first t residuals exactly zero.
    """
    if t_max < 1:
        raise DomainError("t_max must be at least 1")
    residuals = [
        sum((c * poly.evaluate(v) for v, c in g.histogram.items()), Fraction(0))
        for poly in gegenbauer_family(d_sphere, t_max)[1:]
    ]
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
    radicand.  Every certificate folds over the code's histogram; no Gram
    is built.
    """
    dim = code.ambient_harmonic_dim
    coherence = max_coherence(code)
    bound = quadratic_bound(code.n, dim)
    frame = frame_bound_check(code, dim)
    design = design_strength(code, dim - 1, t_max)
    return CodeReport(
        ambient_dim=dim,
        n_points=code.n,
        coherence_a=coherence,
        spectrum=gram_spectrum(code),
        lower_bound_a=bound.value,
        bound_radicand=bound.radicand,
        frame_sum=frame.frame_sum,
        frame_bound=frame.frame_bound,
        design_strength=design.strength,
        optimal_antipodal=coherence * coherence == bound.radicand,
    )


# --- report serialization ---------------------------------------------------


def format_bound(value: Rational | None, radicand: Rational) -> str:
    if value is not None:
        return str(value)
    return f"sqrt({radicand})"


def report_to_dict(report: CodeReport) -> dict:
    return {
        "ambient_dim": report.ambient_dim,
        "n_points": report.n_points,
        "coherence": str(report.coherence_a),
        "spectrum": {
            str(v): report.spectrum[v] for v in sorted(report.spectrum)
        },
        "bound": format_bound(report.lower_bound_a, report.bound_radicand),
        "frame_sum": str(report.frame_sum),
        "frame_bound": str(report.frame_bound),
        "design_strength": report.design_strength,
        "optimal_antipodal": report.optimal_antipodal,
    }


def report_to_json(report: CodeReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"
