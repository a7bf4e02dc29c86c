"""Certification of antipodal spherical codes through exact Gram values.

Every certificate here is a fold over one value histogram, of a validated
Gram matrix or of a built code's integer representative pairs, held as
integer numerators over one denominator: coherence, the tight-frame
inequality and design strength via vanishing Gegenbauer moment sums, next to
the closed-form lower bound on coherence for antipodal codes.  The histogram
counts ordered pairs of distinct points, so it is the Gram spectrum; the
frame and design sums add the diagonal as their n term.  Two unit vectors are
antipodal exactly when their Gram value is -1, so coherence skips the -1
values and needs no pairing of its own.  The records keep integers: every
verdict is an integer comparison, a Fraction is built only for an attribute
that is read, and report_to_json writes each number as a/den text.  The
optimality verdict is the exact comparison of achieved coherence against the
bound, which harmonics computes (QuadraticBound, quadratic_bound and
format_bound are importable from here too).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from operator import mul

from .embedding import EmbeddedCode, Rows
# gegenbauer stays importable here: bench/run.py shims it by name.  The bound's
# record, constructor and formatter live in harmonics and keep their names here.
from .harmonics import QuadraticBound, _fraction, _token, format_bound, gegenbauer, gegenbauer_rows, quadratic_bound


class GramView:
    """Symmetric unit-diagonal Fraction matrix: the Gram of a set of unit vectors.

    One walk validates and counts: squareness first, then symmetry row by row
    while each row's upper triangle goes into the histogram, doubled so that it
    counts ordered pairs of distinct points (the Gram spectrum), then the unit
    diagonal.  The folds read the histogram as counts, its values' numerators
    over den, the lcm of their denominators.
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
        ratios = [v.as_integer_ratio() for v in counts]
        self.den = math.lcm(*(q for _, q in ratios))
        self.counts = {p * (self.den // q): 2 * c for (p, q), c in zip(ratios, counts.values())}


class FrameCheck(namedtuple("FrameCheck", "frame_num bound_num den")):
    """The Gram's squared-entry sum and the n^2/dim it is compared against, as ints over one den > 0."""

    __slots__ = ()

    @property
    def frame_sum(self) -> Fraction:
        return _fraction(self.frame_num, self.den)

    @property
    def frame_bound(self) -> Fraction:
        return _fraction(self.bound_num, self.den)

    @property
    def satisfied(self) -> bool:
        """The frame inequality holds: frame_sum >= frame_bound."""
        return self.frame_num >= self.bound_num


class DesignCheck(namedtuple("DesignCheck", "nums dens")):
    """Gegenbauer moment residuals for k = 1..t_max, the diagonal term included: nums[k-1]/dens[k-1], ints."""

    __slots__ = ()

    @property
    def residuals(self) -> tuple[Fraction, ...]:
        return tuple(map(_fraction, self.nums, self.dens))

    @property
    def strength(self) -> int:
        """The run of leading zero residuals: the largest t of a t-design certified."""
        return next((t for t, a in enumerate(self.nums) if a), len(self.nums))


class CodeReport(namedtuple("CodeReport", "ambient_dim n_points den coherence counts bound frame design")):
    """Certified parameters of an embedded antipodal code, with its folds' results.

    ambient_dim and n_points are ints; the coherence and each Gram value are
    int numerators over den > 0, and counts maps the values to their counts
    in ascending order (report_to_json keeps it); then the QuadraticBound,
    FrameCheck and DesignCheck.
    """

    __slots__ = ()

    @property
    def optimal_antipodal(self) -> bool:
        """Coherence meets the quadratic bound: optimal among antipodal codes."""
        return self.coherence**2 * self.bound.den == self.bound.num * self.den**2

    @property
    def passed(self) -> bool:
        """The exit verdict: optimal, and the frame inequality holds."""
        return self.optimal_antipodal and self.frame.satisfied


def gram_from_embedded(code: EmbeddedCode) -> GramView:
    """Validated Gram view of an embedded code."""
    return GramView(entries=code.gram)


# The folds read g.n, g.den and g.counts of a validated GramView or of a built
# EmbeddedCode: the histogram of ordered distinct pairs as numerators over den.
# max_coherence and gram_spectrum read only den and counts, so a CodeReport too.
Histogrammed = GramView | EmbeddedCode


def gram_spectrum(g: Histogrammed) -> dict[Fraction, int]:
    """Value counts over ordered distinct pairs: the histogram, sorted."""
    return {_fraction(a, g.den): c for a, c in sorted(g.counts.items())}


def _coherence(g: Histogrammed) -> int:
    """max_coherence's numerator over g.den."""
    values = g.counts.keys() - {-g.den}
    if not values:
        raise ValueError("no admissible pair to take coherence over")
    return max(map(abs, values))


def max_coherence(g: Histogrammed) -> Fraction:
    """Largest |gram value| over distinct pairs other than the antipodal -1s.

    In an antipodal code, a -1 between two points that are not partners makes
    one equal to the other's partner, so some pair carries +1 and the
    coherence is 1 either way.
    """
    return _fraction(_coherence(g), g.den)


def frame_bound_check(g: Histogrammed, dim: int) -> FrameCheck:
    """Compare the squared-entry sum of the Gram against n^2/dim, exactly.

    The sum runs over all ordered pairs, the n diagonal term plus the
    histogram's distinct pairs; for any set of n unit vectors spanning at
    most dim dimensions it is >= n^2/dim, with equality exactly for tight
    frames.  Both sides are kept over den^2 dim.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    # each diagonal entry is 1, so the diagonal contributes n, n den^2 over den^2
    den2 = g.den * g.den
    frame_num = g.n * den2 + sum(a * a * c for a, c in g.counts.items())
    return FrameCheck(frame_num * dim, g.n * g.n * den2, den2 * dim)


def design_strength(g: Histogrammed, d_sphere: int, t_max: int) -> DesignCheck:
    """Gegenbauer moment residuals for k = 1..t_max; strength counts the leading zeros.

    The k-th residual is the sum over all ordered pairs of g_k^{d_sphere}
    at the gram entries: the n diagonal term plus the histogram's distinct
    pairs.  A spherical t-design makes the first t residuals exactly zero.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    # one recurrence for all the values over den, and each residual is one
    # integer sum over the shared denominator den_k, where each diagonal entry
    # is 1 and P_k(1) = 1, so the diagonal adds n * den_k
    rows = gegenbauer_rows(d_sphere, g.counts, g.den, range(1, t_max + 1))
    counts = g.counts.values()
    nums = tuple(g.n * den_k + sum(map(mul, counts, row)) for row, den_k in rows)
    return DesignCheck(nums, tuple(den_k for _, den_k in rows))


def certify(code: EmbeddedCode, t_max: int = 3) -> CodeReport:
    """Full certificate for an embedded antipodal code.

    The verdict is exact: the code is optimal among antipodal codes of the
    same size and dimension iff its coherence squared equals the bound's
    num/den.  Every certificate folds over the code's histogram of
    distinct pairs, with the frame sum and design residuals adding the n
    diagonal term; no Gram is built.
    """
    dim = code.ambient_harmonic_dim
    return CodeReport(
        ambient_dim=dim,
        n_points=code.n,
        den=code.den,
        coherence=_coherence(code),
        counts=dict(sorted(code.counts.items())),
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
    den, frame = report.den, report.frame
    entries = ",\n".join([f'    "{_token(a, den)}": {count}' for a, count in report.counts.items()])
    return (
        "{\n"
        f'  "ambient_dim": {report.ambient_dim},\n'
        f'  "n_points": {report.n_points},\n'
        f'  "coherence": "{_token(report.coherence, den)}",\n'
        f'  "spectrum": {{\n{entries}\n  }},\n'
        f'  "bound": "{format_bound(report.bound)}",\n'
        f'  "frame_sum": "{_token(frame.frame_num, frame.den)}",\n'
        f'  "frame_bound": "{_token(frame.bound_num, frame.den)}",\n'
        f'  "design_strength": {report.design.strength},\n'
        f'  "optimal_antipodal": {"true" if report.optimal_antipodal else "false"}\n'
        "}\n"
    )
