"""Gegenbauer image scans over inner-product spectra.

Answers, for a supplied set of inner-product values and parameters (d, k),
whether the degree-k image is equiangular (one absolute value), and what
code parameters a construction over that spectrum would have.  The
spectrum is always user input; nothing about any particular lattice is
assumed here.  A scan puts the values over the lcm of their denominators
and runs the Gegenbauer recurrence once for all of them, so the moduli
compare as integers; only the image and largest modulus become Fractions.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, TextIO

from .codes import QuadraticBound, format_bound, quadratic_bound
from .embedding import parse_rational
# gegenbauer stays importable here: bench/run.py shims it by name.
from .harmonics import gegenbauer, gegenbauer_rows, harmonic_dimension


class ScanResult(NamedTuple):
    """Image of one spectrum under g_k^d, its largest modulus and constancy verdict.

    image_values lists the values in ascending order; scan_to_json keeps it.
    """

    d: int
    k: int
    harmonic_dim: int
    image_values: Mapping[Fraction, Fraction]
    max_modulus: Fraction
    constant_modulus: bool

    @property
    def modulus(self) -> Fraction | None:
        """The one absolute value of the image, or None if it has several."""
        return self.max_modulus if self.constant_modulus else None


class CandidateSummary(NamedTuple):
    """Hypothetical embedded-code parameters for a spectrum: its scan, size, bound."""

    scan: ScanResult
    n_points: int
    bound: QuadraticBound

    @property
    def coherence(self) -> Fraction:
        """The largest |g| over the scanned image."""
        return self.scan.max_modulus


def _checked_values(values: Iterable[int | Fraction]) -> tuple[list[Fraction], list[int], int]:
    """The distinct values in ascending order, their numerators over the lcm of
    their denominators, and that lcm; the first bad value raises."""
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
    return [scaled[a] for a in nums], nums, lcm


def constant_modulus_scan(
    values: Iterable[int | Fraction], d: int, k_range: Iterable[int]
) -> list[ScanResult]:
    """Evaluate g_k^d on every value for each k, from one run of the recurrence.

    Each degree's image is one row of numerators over one denominator, so the
    modulus is constant exactly when the row has one absolute value.
    """
    keys, nums, den = _checked_values(values)
    ks = list(k_range)
    if not ks:
        return []
    results = []
    for k, (row, den_k) in zip(ks, gegenbauer_rows(d, nums, den, ks)):
        moduli = set(map(abs, row))
        results.append(
            ScanResult(
                d=d,
                k=k,
                harmonic_dim=harmonic_dimension(d, k),
                image_values={v: Fraction(a, den_k) for v, a in zip(keys, row)},
                max_modulus=Fraction(max(moduli), den_k),
                constant_modulus=len(moduli) == 1,
            )
        )
    return results


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


def read_spectrum_file(f: TextIO) -> list[Fraction]:
    """One p/q token per line; blank lines ignored."""
    out = []
    for line in f.read().splitlines():
        tok = line.strip()
        if not tok:
            continue
        out.append(parse_rational(tok))
    return out


def scan_to_json(result: ScanResult) -> str:
    return json.dumps({
        "d": result.d,
        "k": result.k,
        "harmonic_dim": result.harmonic_dim,
        "image": {
            str(v): str(g) for v, g in result.image_values.items()
        },
        "constant_modulus": result.constant_modulus,
        "modulus": None if result.modulus is None else str(result.modulus),
    }) + "\n"


def candidate_to_json(summary: CandidateSummary) -> str:
    return json.dumps({
        "ambient_dim": summary.scan.harmonic_dim,
        "n_points": summary.n_points,
        "coherence": str(summary.coherence),
        "bound": format_bound(summary.bound),
        "constant_modulus": summary.scan.constant_modulus,
    }) + "\n"
