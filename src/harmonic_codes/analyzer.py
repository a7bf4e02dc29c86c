"""Gegenbauer image scans over inner-product spectra.

Answers, for a supplied set of inner-product values and parameters (d, k),
whether the degree-k image is equiangular (one absolute value), and what
code parameters a construction over that spectrum would have.  The
spectrum is always user input; nothing about any particular lattice is
assumed here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Mapping, TextIO

from .codes import QuadraticBound, format_bound, quadratic_bound
from .exact import DomainError, Rational, parse_rational
# gegenbauer stays importable here: bench/run.py shims it by name.
from .harmonics import gegenbauer, gegenbauer_family, harmonic_dimension


@dataclass(frozen=True)
class ScanResult:
    """Image of one spectrum under g_k^d with its constancy verdict."""

    d: int
    k: int
    harmonic_dim: int
    image_values: Mapping[Rational, Rational]
    constant_modulus: bool
    modulus: Rational | None


@dataclass(frozen=True)
class CandidateSummary:
    """Hypothetical embedded-code parameters for a spectrum, bound included."""

    harmonic_dim: int
    n_points: int
    coherence: Rational
    bound: QuadraticBound
    constant_modulus: bool


def _checked_values(values: Iterable[int | Rational]) -> list[Rational]:
    out = []
    for v in values:
        v = Fraction(v)
        if not -1 <= v <= 1:
            raise DomainError(f"inner-product value {v} outside [-1, 1]")
        if abs(v) == 1:
            raise DomainError("values +-1 are self or antipodal products, not admissible")
        out.append(v)
    if not out:
        raise DomainError("empty value set")
    return sorted(set(out))


def constant_modulus_scan(
    values: Iterable[int | Rational], d: int, k_range: Iterable[int]
) -> List[ScanResult]:
    """Evaluate g_k^d on every value for each k and report modulus constancy."""
    vals = _checked_values(values)
    ks = list(k_range)
    if not ks:
        return []
    family = gegenbauer_family(d, max(ks))
    results = []
    for k in ks:
        harmonic_dim = harmonic_dimension(d, k)  # rejects k < 0 before family[k] can wrap
        image = {v: family[k].evaluate(v) for v in vals}
        moduli = {abs(g) for g in image.values()}
        constant = len(moduli) == 1
        results.append(
            ScanResult(
                d=d,
                k=k,
                harmonic_dim=harmonic_dim,
                image_values=image,
                constant_modulus=constant,
                modulus=next(iter(moduli)) if constant else None,
            )
        )
    return results


def candidate_from_scan(scan: ScanResult, n_points: int) -> CandidateSummary:
    """Parameters the embedded code over a scanned spectrum would have, plus the bound."""
    coherence = max(abs(g) for g in scan.image_values.values())
    return CandidateSummary(
        harmonic_dim=scan.harmonic_dim,
        n_points=n_points,
        coherence=coherence,
        bound=quadratic_bound(n_points, scan.harmonic_dim),
        constant_modulus=scan.constant_modulus,
    )


def candidate_parameters(
    values: Iterable[int | Rational], d: int, k: int, n_points: int
) -> CandidateSummary:
    """candidate_from_scan of the one-degree scan of these values."""
    (scan,) = constant_modulus_scan(values, d, k_range=[k])
    return candidate_from_scan(scan, n_points)


# --- spectrum file and report rendering -------------------------------------


def read_spectrum_file(f: TextIO) -> list[Rational]:
    """One p/q token per line; blank lines ignored."""
    out = []
    for line in f.read().splitlines():
        tok = line.strip()
        if not tok:
            continue
        out.append(parse_rational(tok))
    return out


def scan_to_dict(result: ScanResult) -> dict:
    return {
        "d": result.d,
        "k": result.k,
        "harmonic_dim": result.harmonic_dim,
        "image": {
            str(v): str(result.image_values[v])
            for v in sorted(result.image_values)
        },
        "constant_modulus": result.constant_modulus,
        "modulus": None if result.modulus is None else str(result.modulus),
    }


def candidate_to_dict(summary: CandidateSummary) -> dict:
    return {
        "ambient_dim": summary.harmonic_dim,
        "n_points": summary.n_points,
        "coherence": str(summary.coherence),
        "bound": format_bound(summary.bound.value, summary.bound.radicand),
        "constant_modulus": summary.constant_modulus,
    }


def scan_to_json(result: ScanResult) -> str:
    return json.dumps(scan_to_dict(result)) + "\n"


def candidate_to_json(summary: CandidateSummary) -> str:
    return json.dumps(candidate_to_dict(summary)) + "\n"
