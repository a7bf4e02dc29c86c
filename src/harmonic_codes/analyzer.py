"""Gegenbauer image scans over inner-product spectra.

Answers, for a supplied set of inner-product values and parameters (d, k),
whether the degree-k image is equiangular (one absolute value), and what
code parameters a construction over that spectrum would have.  The
spectrum is always user input; nothing about any particular lattice is
assumed here.  A scan puts the values over the lcm of their denominators
and runs the Gegenbauer recurrence once for all of them.  Each ScanResult
keeps the recurrence's integer row: the scan's values, the degree's
numerators and their one denominator.  The moduli compare as integers, and
the JSON lines are written as text straight from the integers, with no
encoder and no Fraction built; a Fraction is built only for a modulus that
is read (a candidate's coherence is its scan's max_modulus), and none is
hashed unless a caller reads image_values.

The module imports only harmonics from the package (the p/q parser and the
quadratic bound live there), so a `scan` run loads no embedding, lattice or
certificate code.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from io import TextIOBase

# gegenbauer stays importable here: bench/run.py shims it by name.
from .harmonics import _token, format_bound, gegenbauer, gegenbauer_rows, harmonic_dimension
from .harmonics import parse_rational, quadratic_bound


class ScanResult(namedtuple("ScanResult", "d k harmonic_dim values nums den")):
    """Image of one spectrum under g_k^d, as one row of the recurrence.

    values is a tuple of the scan's Fraction values in ascending order (one
    tuple shared by every degree of a scan); the image of values[i] is
    nums[i] / den, with nums a tuple of ints and den > 0.  Everything else is
    read off that row.
    """

    __slots__ = ()

    @property
    def image_values(self) -> dict[Fraction, Fraction]:
        """Each value's image, in ascending order of the values."""
        return {v: Fraction(a, self.den) for v, a in zip(self.values, self.nums)}

    @property
    def max_modulus(self) -> Fraction:
        """The largest absolute value of the image."""
        return Fraction(max(map(abs, self.nums)), self.den)

    @property
    def constant_modulus(self) -> bool:
        """Whether the image has one absolute value."""
        return len(set(map(abs, self.nums))) == 1

    @property
    def modulus(self) -> Fraction | None:
        """The one absolute value of the image, or None if it has several."""
        return self.max_modulus if self.constant_modulus else None


class CandidateSummary(namedtuple("CandidateSummary", "scan n_points bound")):
    """Hypothetical embedded-code parameters for a spectrum: its ScanResult, size and QuadraticBound."""

    __slots__ = ()


def _checked_values(values: Iterable[int | Fraction]) -> tuple[tuple[Fraction, ...], list[int], int]:
    """The distinct values as a tuple in ascending order, their numerators over
    the lcm of their denominators, and that lcm; the first bad value raises."""
    ratios = {}
    for v in values:
        p, q = v.as_integer_ratio()
        if abs(p) == q:
            raise ValueError("values +-1 are self or antipodal products, not admissible")
        if not -q < p < q:
            raise ValueError(f"inner-product value {Fraction(p, q)} outside [-1, 1]")
        ratios[p, q] = v if type(v) is Fraction else Fraction(p, q)
    if not ratios:
        raise ValueError("empty value set")
    lcm = math.lcm(*(q for _, q in ratios))
    scaled = {p * (lcm // q): v for (p, q), v in ratios.items()}
    nums = sorted(scaled)
    return tuple(scaled[a] for a in nums), nums, lcm


def constant_modulus_scan(
    values: Iterable[int | Fraction], d: int, k_range: Iterable[int]
) -> list[ScanResult]:
    """Evaluate g_k^d on every value for each k, from one run of the recurrence.

    Each degree's image is one row of numerators over one denominator, which
    its ScanResult keeps as it is.
    """
    keys, nums, den = _checked_values(values)
    ks = list(k_range)
    if not ks:
        return []
    return [
        ScanResult(d, k, harmonic_dimension(d, k), keys, tuple(row), den_k)
        for k, (row, den_k) in zip(ks, gegenbauer_rows(d, nums, den, ks))
    ]


def candidate_from_scan(scan: ScanResult, n_points: int) -> CandidateSummary:
    """Parameters the embedded code over a scanned spectrum would have, plus the bound."""
    return CandidateSummary(
        scan=scan,
        n_points=n_points,
        bound=quadratic_bound(n_points, scan.harmonic_dim),
    )


def candidate_parameters(
    values: Iterable[int | Fraction], d: int, k: int, n_points: int
) -> CandidateSummary:
    """candidate_from_scan of the one-degree scan of these values."""
    (scan,) = constant_modulus_scan(values, d, k_range=[k])
    return candidate_from_scan(scan, n_points)


# --- spectrum file and report rendering -------------------------------------


def read_spectrum_file(f: TextIOBase) -> list[Fraction]:
    """One p/q token per line; blank lines ignored."""
    return list(map(parse_rational, filter(None, map(str.strip, f.read().splitlines()))))


def scan_to_json(result: ScanResult) -> str:
    """The scan as one JSON line, byte for byte as json.dumps writes it.

    Every string written is a number token (ASCII digits, "-" and "/"), so
    nothing needs escaping; one set of the absolute numerators gives the
    verdict and the modulus.
    """
    den, nums = result.den, result.nums
    image = ", ".join([f'"{key}": "{_token(a, den)}"' for key, a in zip(map(str, result.values), nums)])
    moduli = set(map(abs, nums))
    constant, modulus = ("true", f'"{_token(moduli.pop(), den)}"') if len(moduli) == 1 else ("false", "null")
    return (
        f'{{"d": {result.d}, "k": {result.k}, "harmonic_dim": {result.harmonic_dim}, '
        f'"image": {{{image}}}, "constant_modulus": {constant}, "modulus": {modulus}}}\n'
    )


def candidate_to_json(summary: CandidateSummary) -> str:
    """The candidate as one JSON line, byte for byte as json.dumps writes it.

    Every string written is a number token (ASCII digits, "-", "/" or
    sqrt(...) of one), so nothing needs escaping; one set of the absolute
    numerators gives the coherence and the verdict.
    """
    scan = summary.scan
    moduli = set(map(abs, scan.nums))
    return (
        f'{{"ambient_dim": {scan.harmonic_dim}, "n_points": {summary.n_points}, '
        f'"coherence": "{_token(max(moduli), scan.den)}", "bound": "{format_bound(summary.bound)}", '
        f'"constant_modulus": {"true" if len(moduli) == 1 else "false"}}}\n'
    )
