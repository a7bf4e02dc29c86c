"""Gegenbauer image scans over inner-product spectra.

Answers, for a supplied set of inner-product values and parameters (d, k),
whether the degree-k image is equiangular (one absolute value), and what
code parameters a construction over that spectrum would have.  The
spectrum is always user input; nothing about any particular lattice is
assumed here.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, TextIO

from .codes import QuadraticBound, format_bound, quadratic_bound
from .embedding import parse_rational
# gegenbauer stays importable here: bench/run.py shims it by name.
from .harmonics import gegenbauer, gegenbauer_values, harmonic_dimension


class ScanResult(NamedTuple):
    """Image of one spectrum under g_k^d with its constancy verdict."""

    d: int
    k: int
    harmonic_dim: int
    image_values: Mapping[Fraction, Fraction]
    modulus: Fraction | None

    @property
    def constant_modulus(self) -> bool:
        """Every image value has the same absolute value, the modulus."""
        return self.modulus is not None


class CandidateSummary(NamedTuple):
    """Hypothetical embedded-code parameters for a spectrum: its scan, size, coherence, bound."""

    scan: ScanResult
    n_points: int
    coherence: Fraction
    bound: QuadraticBound


def _checked_values(values: Iterable[int | Fraction]) -> list[Fraction]:
    out = []
    for v in values:
        v = Fraction(v)
        if not -1 <= v <= 1:
            raise ValueError(f"inner-product value {v} outside [-1, 1]")
        if abs(v) == 1:
            raise ValueError("values +-1 are self or antipodal products, not admissible")
        out.append(v)
    if not out:
        raise ValueError("empty value set")
    return sorted(set(out))


def constant_modulus_scan(
    values: Iterable[int | Fraction], d: int, k_range: Iterable[int]
) -> list[ScanResult]:
    """Evaluate g_k^d on every value for each k and report modulus constancy."""
    vals = _checked_values(values)
    ks = list(k_range)
    if not ks:
        return []
    columns = {v: gegenbauer_values(d, v, ks) for v in vals}
    results = []
    for i, k in enumerate(ks):
        image = {v: column[i] for v, column in columns.items()}
        moduli = {abs(g) for g in image.values()}
        results.append(
            ScanResult(
                d=d,
                k=k,
                harmonic_dim=harmonic_dimension(d, k),
                image_values=image,
                modulus=moduli.pop() if len(moduli) == 1 else None,
            )
        )
    return results


def candidate_from_scan(scan: ScanResult, n_points: int) -> CandidateSummary:
    """Parameters the embedded code over a scanned spectrum would have, plus the bound."""
    return CandidateSummary(
        scan=scan,
        n_points=n_points,
        coherence=max(abs(g) for g in scan.image_values.values()),
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
            str(v): str(result.image_values[v])
            for v in sorted(result.image_values)
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
