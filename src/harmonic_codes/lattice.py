"""E8 root generation and inner-product spectra of equinorm integer codes.

Points are stored as integer coordinate vectors at a declared scale, so
that every normalized inner product (p.q)/norm_sq_scaled is an exact
Fraction.  The 240 E8 roots are generated in the even coordinate system
(lattice norm^2 = 2) and multiplied by 2 so the half-integer shape
becomes integral: stored norms are all 8.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from typing import Dict

# Normalized inner-product value -> count over ordered distinct pairs.
Spectrum = Dict[Fraction, int]


def scaled_dot(p: tuple[int, ...], q: tuple[int, ...]) -> int:
    return sum(map(mul, p, q))


@dataclass(frozen=True)
class LatticeCode:
    """Equinorm integer point set representing a spherical code exactly.

    The true point for a stored vector p is p/sqrt(norm_sq_scaled); all
    pairwise inner products of true points are rational and are computed
    as (p.q)/norm_sq_scaled without ever forming the square root.
    """

    ambient_dim: int
    scale: int
    norm_sq_scaled: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.ambient_dim < 1 or self.scale < 1 or self.norm_sq_scaled < 1:
            raise ValueError("dimensions, scale and norm must be positive")
        seen = set()
        for p in self.points:
            if len(p) != self.ambient_dim:
                raise ValueError(f"point {p} has wrong dimension")
            if scaled_dot(p, p) != self.norm_sq_scaled:
                raise ValueError(f"point {p} is not of the declared norm")
            if p in seen:
                raise ValueError(f"duplicate point {p}")
            seen.add(p)

    def __len__(self) -> int:
        return len(self.points)

    def normalized_inner(self, i: int, j: int) -> Fraction:
        """Inner product of true points i and j, exact."""
        return Fraction(
            scaled_dot(self.points[i], self.points[j]), self.norm_sq_scaled
        )

    def is_antipodal(self) -> bool:
        point_set = set(self.points)
        return all(tuple(-c for c in p) in point_set for p in self.points)


def generate_e8_roots() -> LatticeCode:
    """All 240 E8 roots, scaled by 2, in ascending lexicographic order.

    Two shapes: 112 vectors with two entries +-2 and six zeros, and 128
    vectors (+-1)^8 with an even number of negative entries.
    """
    points = []
    for i, j in combinations(range(8), 2):
        for si, sj in product((-2, 2), repeat=2):
            v = [0] * 8
            v[i] = si
            v[j] = sj
            points.append(tuple(v))
    for signs in product((-1, 1), repeat=8):
        if signs.count(-1) % 2 == 0:
            points.append(signs)
    return LatticeCode(
        ambient_dim=8, scale=2, norm_sq_scaled=8, points=tuple(sorted(points))
    )


def select_antipodal_representatives(code: LatticeCode) -> LatticeCode:
    """One point from each antipodal pair, keeping the lexicographically larger.

    Raises ValueError naming the first point whose negation is missing.
    """
    point_set = set(code.points)
    kept = []
    for p in code.points:
        neg = tuple(-c for c in p)
        if neg not in point_set:
            raise ValueError(f"point {p} has no antipode in the code")
        if p > neg:
            kept.append(p)
    return LatticeCode(
        ambient_dim=code.ambient_dim,
        scale=code.scale,
        norm_sq_scaled=code.norm_sq_scaled,
        points=tuple(kept),
    )


def spectrum(code: LatticeCode) -> Spectrum:
    """Normalized inner-product counts over ordered distinct pairs."""
    if len(code) == 0:
        raise ValueError("empty code has no spectrum")
    counts: Counter[int] = Counter()
    pts = code.points
    for i in range(len(pts)):
        p = pts[i]
        for j in range(i + 1, len(pts)):
            counts[scaled_dot(p, pts[j])] += 1
    # (p,q) and (q,p) carry the same value, so ordered counts are doubled.
    return {
        Fraction(s, code.norm_sq_scaled): 2 * c for s, c in sorted(counts.items())
    }


# --- line-oriented code file format ----------------------------------------
#
# line 1:        ambient_dim N scale norm_sq_scaled
# lines 2..N+1:  ambient_dim space-separated integers


def code_to_text(code: LatticeCode) -> str:
    out = io.StringIO()
    out.write(
        f"{code.ambient_dim} {len(code)} {code.scale} {code.norm_sq_scaled}\n"
    )
    for p in code.points:
        out.write(" ".join(str(c) for c in p) + "\n")
    return out.getvalue()


def code_from_text(text: str) -> LatticeCode:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty code file")
    header = lines[0].split()
    if len(header) != 4:
        raise ValueError("header must be: ambient_dim N scale norm_sq_scaled")
    try:
        ambient_dim, n, scale, norm_sq = (int(tok) for tok in header)
    except ValueError as exc:
        raise ValueError(f"bad header {lines[0]!r}") from exc
    if n < 0:
        raise ValueError(f"point count {n} is negative")
    body = [line for line in lines[1:] if line.strip()]
    if len(body) != n:
        raise ValueError(f"expected {n} points, found {len(body)}")
    try:
        points = tuple(tuple(int(tok) for tok in line.split()) for line in body)
    except ValueError as exc:
        raise ValueError("non-integer coordinate") from exc
    return LatticeCode(
        ambient_dim=ambient_dim,
        scale=scale,
        norm_sq_scaled=norm_sq,
        points=points,
    )
