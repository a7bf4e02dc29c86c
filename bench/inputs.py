"""Seeded inputs for the benchmark workloads.

The program under test only ever sees the text these functions return.
The E8 and D16 root codes are re-expressed under a seeded signed coordinate
permutation and their rows are shuffled: an orthogonal map keeps every inner
product, so every certificate is the same for every seed.  The scan batch is
a seeded set of random spectra.  The same seed gives the same bytes.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

SCAN_SPECTRA = 40
SCAN_VALUES = 6
SCAN_D_RANGE = (2, 30)
SCAN_Q_MAX = 12
SCAN_K_MAX = 12
SCAN_N_POINTS = 240


def e8_roots() -> list[tuple[int, ...]]:
    """The 240 E8 roots with doubled coordinates (norm 8)."""
    points = []
    for i, j in combinations(range(8), 2):
        for si, sj in product((-2, 2), repeat=2):
            v = [0] * 8
            v[i], v[j] = si, sj
            points.append(tuple(v))
    points += [s for s in product((-1, 1), repeat=8) if s.count(-1) % 2 == 0]
    return points


def d16_roots() -> list[tuple[int, ...]]:
    """The 480 D16 roots +-e_i +-e_j (norm 2)."""
    points = []
    for i, j in combinations(range(16), 2):
        for si, sj in product((-1, 1), repeat=2):
            v = [0] * 16
            v[i], v[j] = si, sj
            points.append(tuple(v))
    return points


# name -> (points, scale, stored norm)
LATTICES = {"e8": (e8_roots, 2, 8), "d16": (d16_roots, 1, 2)}


def lattice_text(name: str, seed: int) -> str:
    """Code file text of a lattice shell under a seeded signed permutation."""
    make, scale, norm = LATTICES[name]
    rng = random.Random(f"{name}:{seed}")
    points = make()
    dim = len(points[0])
    perm = rng.sample(range(dim), dim)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    rows = [tuple(s * p[k] for s, k in zip(signs, perm)) for p in points]
    rng.shuffle(rows)
    lines = [f"{dim} {len(rows)} {scale} {norm}"]
    lines += [" ".join(str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def spectra(seed: int) -> list[tuple[int, list[Fraction]]]:
    """SCAN_SPECTRA pairs (d, values): distinct rationals p/q in (-1, 1)."""
    rng = random.Random(f"scan:{seed}")
    batch = []
    for _ in range(SCAN_SPECTRA):
        values: set[Fraction] = set()
        while len(values) < SCAN_VALUES:
            q = rng.randint(2, SCAN_Q_MAX)
            values.add(Fraction(rng.randint(1 - q, q - 1), q))
        batch.append((rng.randint(*SCAN_D_RANGE), sorted(values)))
    return batch


def spectrum_text(values: list[Fraction]) -> str:
    """Spectrum file text: one p/q token per line."""
    return "".join(f"{v}\n" for v in values)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
