"""Certification of antipodal spherical codes through exact Gram values.

Every certificate here is a fold over one value histogram, of a validated
Gram matrix or of a built code's integer representative pairs: coherence,
the tight-frame inequality and design strength via vanishing Gegenbauer
moment sums, next to the closed-form lower bound on coherence for antipodal
codes.  The histogram counts ordered pairs of distinct points, so it is the
Gram spectrum; the frame and design sums add the diagonal as their n term.
Two unit vectors are antipodal exactly when their Gram value is -1, so
coherence skips the -1 values and needs no pairing of its own.  The
optimality verdict is the exact comparison of achieved coherence against the
bound.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .embedding import EmbeddedCode, Rows
# gegenbauer stays importable here: bench/run.py shims it by name.
from .harmonics import gegenbauer, gegenbauer_values
from .lattice import Spectrum


class GramView:
    """Symmetric unit-diagonal Fraction matrix: the Gram of a set of unit vectors.

    One walk validates and counts: squareness first, then symmetry row by row
    while each row's upper triangle goes into the histogram, doubled so that it
    counts ordered pairs of distinct points (the Gram spectrum), then the unit
    diagonal.
    """

    def __init__(self, entries: Rows) -> None:
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix is not square")
        counts: Counter = Counter()
        for i, row in enumerate(entries):
            for j in range(i + 1, n):
                if row[j] != entries[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
            counts.update(row[i + 1:])
        for i, row in enumerate(entries):
            if row[i] != 1:
                raise ValueError(f"diagonal entry {i} is not 1")
        self.entries, self.n = entries, n
        self.histogram = Counter({v: 2 * c for v, c in counts.items()})


class FrameCheck(NamedTuple):
    """The Gram's squared-entry sum and the n^2/dim it is compared against."""

    frame_sum: Fraction
    frame_bound: Fraction

    @property
    def satisfied(self) -> bool:
        """The frame inequality holds: frame_sum >= frame_bound."""
        return self.frame_sum >= self.frame_bound


class QuadraticBound(NamedTuple):
    """Lower bound a_min on antipodal-code coherence, kept exact as a_min^2 = radicand >= 0."""

    radicand: Fraction

    @property
    def value(self) -> Fraction | None:
        """The rational square root of the radicand, or None when the bound is irrational."""
        q = self.radicand
        rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
        if rn * rn != q.numerator or rd * rd != q.denominator:
            return None
        return Fraction(rn, rd)


class DesignCheck(NamedTuple):
    """Gegenbauer moment residuals for k = 1..t_max, the diagonal term included."""

    residuals: tuple[Fraction, ...]

    @property
    def strength(self) -> int:
        """The run of leading zero residuals: the largest t of a t-design certified."""
        return next((t for t, r in enumerate(self.residuals) if r), len(self.residuals))


class CodeReport(NamedTuple):
    """Certified parameters of an embedded antipodal code, with its folds' results."""

    ambient_dim: int
    n_points: int
    coherence_a: Fraction
    spectrum: Spectrum
    bound: QuadraticBound
    frame: FrameCheck
    design: DesignCheck

    @property
    def optimal_antipodal(self) -> bool:
        """Coherence meets the quadratic bound: optimal among antipodal codes."""
        return self.coherence_a * self.coherence_a == self.bound.radicand

    @property
    def passed(self) -> bool:
        """The exit verdict: optimal, and the frame inequality holds."""
        return self.optimal_antipodal and self.frame.satisfied


def gram_from_embedded(code: EmbeddedCode) -> GramView:
    """Validated Gram view of an embedded code."""
    return GramView(entries=code.gram)


# The folds read g.n and g.histogram of a validated GramView or of a built
# EmbeddedCode; the histogram counts ordered pairs of distinct points.
Histogrammed = GramView | EmbeddedCode


def gram_spectrum(g: Histogrammed) -> Spectrum:
    """Value counts over ordered distinct pairs: the histogram, sorted."""
    return {v: g.histogram[v] for v in sorted(g.histogram)}


def max_coherence(g: Histogrammed) -> Fraction:
    """Largest |gram value| over distinct pairs other than the antipodal -1s.

    In an antipodal code, a -1 between two points that are not partners makes
    one equal to the other's partner, so some pair carries +1 and the
    coherence is 1 either way.
    """
    values = g.histogram.keys() - {-1}
    if not values:
        raise ValueError("no admissible pair to take coherence over")
    return max(abs(v) for v in values)


def frame_bound_check(g: Histogrammed, dim: int) -> FrameCheck:
    """Compare the squared-entry sum of the Gram against n^2/dim, exactly.

    The sum runs over all ordered pairs, the n diagonal term plus the
    histogram's distinct pairs; for any set of n unit vectors spanning at
    most dim dimensions it is >= n^2/dim, with equality exactly for tight
    frames.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    # each diagonal entry is 1, so the diagonal contributes n
    frame_sum = sum((v * v * c for v, c in g.histogram.items()), Fraction(g.n))
    return FrameCheck(frame_sum, Fraction(g.n * g.n, dim))


def quadratic_bound(n: int, dim: int) -> QuadraticBound:
    """Smallest possible coherence of an antipodal n-point code in dim dimensions.

    From sum (y_i,y_j)^2 >= n^2/dim the diagonal and antipodal pairs each
    contribute n, leaving n(n-2) ordered pairs to average at least
    (n^2/dim - 2n)/(n(n-2)).  The record keeps that average, clamped at
    zero, as its radicand; its value is the rational square root, if any.
    """
    if n % 2 != 0:
        raise ValueError("antipodal codes have an even number of points")
    if n < 4:
        raise ValueError("need at least two antipodal pairs")
    if dim < 1:
        raise ValueError("dimension must be positive")
    return QuadraticBound(max(Fraction(0), (Fraction(n, dim) - 2) / (n - 2)))


def design_strength(g: Histogrammed, d_sphere: int, t_max: int) -> DesignCheck:
    """Gegenbauer moment residuals for k = 1..t_max; strength counts the leading zeros.

    The k-th residual is the sum over all ordered pairs of g_k^{d_sphere}
    at the gram entries: the n diagonal term plus the histogram's distinct
    pairs.  A spherical t-design makes the first t residuals exactly zero.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if d_sphere < 1:
        raise ValueError("sphere dimension must be >= 1")
    # each diagonal entry is 1 and P_k(1) = 1: the diagonal adds n to every residual
    residuals = [Fraction(g.n)] * t_max
    for v, c in g.histogram.items():
        for i, value in enumerate(gegenbauer_values(d_sphere, v, range(1, t_max + 1))):
            residuals[i] += c * value
    return DesignCheck(tuple(residuals))


def certify(code: EmbeddedCode, t_max: int = 3) -> CodeReport:
    """Full certificate for an embedded antipodal code.

    The verdict is exact: the code is optimal among antipodal codes of the
    same size and dimension iff its coherence squared equals the bound's
    radicand.  Every certificate folds over the code's histogram of
    distinct pairs, with the frame sum and design residuals adding the n
    diagonal term; no Gram is built.
    """
    dim = code.ambient_harmonic_dim
    return CodeReport(
        ambient_dim=dim,
        n_points=code.n,
        coherence_a=max_coherence(code),
        spectrum=gram_spectrum(code),
        bound=quadratic_bound(code.n, dim),
        frame=frame_bound_check(code, dim),
        design=design_strength(code, dim - 1, t_max),
    )


# --- report serialization ---------------------------------------------------


def format_bound(bound: QuadraticBound) -> str:
    value = bound.value
    return f"sqrt({bound.radicand})" if value is None else str(value)


def report_to_json(report: CodeReport) -> str:
    return json.dumps({
        "ambient_dim": report.ambient_dim,
        "n_points": report.n_points,
        "coherence": str(report.coherence_a),
        "spectrum": {
            str(v): report.spectrum[v] for v in sorted(report.spectrum)
        },
        "bound": format_bound(report.bound),
        "frame_sum": str(report.frame.frame_sum),
        "frame_bound": str(report.frame.frame_bound),
        "design_strength": report.design.strength,
        "optimal_antipodal": report.optimal_antipodal,
    }, indent=2) + "\n"
