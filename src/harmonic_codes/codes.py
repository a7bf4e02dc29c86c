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
bound, which harmonics computes (QuadraticBound, quadratic_bound and
format_bound are importable from here too).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from operator import mul

from .embedding import EmbeddedCode, Rows
# gegenbauer stays importable here: bench/run.py shims it by name.  The bound's
# record, constructor and formatter live in harmonics and keep their names here.
from .harmonics import QuadraticBound, format_bound, gegenbauer, gegenbauer_rows, quadratic_bound
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


class FrameCheck(namedtuple("FrameCheck", "frame_sum frame_bound")):
    """The Gram's squared-entry sum and the n^2/dim it is compared against, both Fractions."""

    __slots__ = ()

    @property
    def satisfied(self) -> bool:
        """The frame inequality holds: frame_sum >= frame_bound."""
        return self.frame_sum >= self.frame_bound


class DesignCheck(namedtuple("DesignCheck", "residuals")):
    """Gegenbauer moment residuals for k = 1..t_max, a tuple of Fractions, the diagonal term included."""

    __slots__ = ()

    @property
    def strength(self) -> int:
        """The run of leading zero residuals: the largest t of a t-design certified."""
        return next((t for t, r in enumerate(self.residuals) if r), len(self.residuals))


class CodeReport(namedtuple("CodeReport", "ambient_dim n_points coherence_a spectrum bound frame design")):
    """Certified parameters of an embedded antipodal code, with its folds' results.

    ambient_dim and n_points are ints, coherence_a a Fraction, spectrum a
    Spectrum listing the values in ascending order (report_to_json keeps it),
    then the QuadraticBound, FrameCheck and DesignCheck.
    """

    __slots__ = ()

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
    # the values over the lcm of their denominators: one recurrence for all, and
    # each residual is one integer sum over the shared denominator den_k, where
    # each diagonal entry is 1 and P_k(1) = 1, so the diagonal adds n * den_k
    ratios = [v.as_integer_ratio() for v in g.histogram]
    den = math.lcm(*(q for _, q in ratios))
    counts = g.histogram.values()
    rows = gegenbauer_rows(d_sphere, [p * (den // q) for p, q in ratios], den, range(1, t_max + 1))
    return DesignCheck(tuple(
        Fraction(g.n * den_k + sum(map(mul, counts, row)), den_k) for row, den_k in rows
    ))


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


def report_to_json(report: CodeReport) -> str:
    """The certificate as JSON text, byte for byte as json.dumps(..., indent=2) writes it.

    Every string written is a number token (ASCII digits, "-", "/" or
    sqrt(...) of one), so nothing needs escaping.  The spectrum is never
    empty: certify has raised before on a code with no pair to take
    coherence over.
    """
    spectrum = report.spectrum
    entries = ",\n".join([f'    "{key}": {count}' for key, count in zip(map(str, spectrum), spectrum.values())])
    return (
        "{\n"
        f'  "ambient_dim": {report.ambient_dim},\n'
        f'  "n_points": {report.n_points},\n'
        f'  "coherence": "{str(report.coherence_a)}",\n'
        f'  "spectrum": {{\n{entries}\n  }},\n'
        f'  "bound": "{format_bound(report.bound)}",\n'
        f'  "frame_sum": "{str(report.frame.frame_sum)}",\n'
        f'  "frame_bound": "{str(report.frame.frame_bound)}",\n'
        f'  "design_strength": {report.design.strength},\n'
        f'  "optimal_antipodal": {"true" if report.optimal_antipodal else "false"}\n'
        "}\n"
    )
