"""Independent witnesses for every workload output.

Each check returns a list of error messages; an empty list means the output
is correct.  The witnesses are derived here from closed forms and from the
generated input text, not from the functions under test.  The one exception
is `gram_from_text`, which reads the exact Gram format back.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from harmonic_codes.embedding import gram_from_text

import inputs

# The certificates are invariant under the seeded transforms, so one pinned
# text serves every seed.  E8 is the certificate printed in the README.
PINNED_CERTIFICATES = {
    "e8": """{
  "ambient_dim": 35,
  "n_points": 240,
  "coherence": "1/7",
  "spectrum": {
    "-1": 240,
    "-1/7": 28560,
    "1/7": 28560
  },
  "bound": "1/7",
  "frame_sum": "11520/7",
  "frame_bound": "11520/7",
  "design_strength": 3,
  "optimal_antipodal": true
}
""",
    "d16": """{
  "ambient_dim": 135,
  "n_points": 480,
  "coherence": "1/5",
  "spectrum": {
    "-1": 480,
    "-1/5": 26880,
    "-1/15": 87840,
    "1/15": 87840,
    "1/5": 26880
  },
  "bound": "sqrt(7/2151)",
  "frame_sum": "19456/5",
  "frame_bound": "5120/3",
  "design_strength": 1,
  "optimal_antipodal": false
}
""",
}
CERTIFY_EXIT = {"e8": 0, "d16": 1}
FLOAT_TOLERANCE = 1e-12
FLOAT_PAIR_SAMPLE = 2000
MAX_REPORTED = 5


def parse_code(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """(ambient dimension, stored norm, rows) of a code file, read directly."""
    lines = text.splitlines()
    dim, _, _, norm = (int(tok) for tok in lines[0].split())
    return dim, norm, [tuple(int(tok) for tok in line.split()) for line in lines[1:]]


def degree2_kernel(m: int, t: Fraction) -> Fraction:
    """g_2(t) = (m t^2 - 1)/(m - 1): the image inner product in ambient dimension m."""
    return (m * t * t - 1) / (m - 1)


def rational_sqrt(q: Fraction) -> Fraction | None:
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def bound_text(n_points: int, dim: int) -> str:
    """Antipodal coherence bound sqrt(max(0, (n/dim - 2)/(n - 2))) as printed."""
    radicand = max(Fraction(0), (Fraction(n_points, dim) - 2) / (n_points - 2))
    root = rational_sqrt(radicand)
    return str(root) if root is not None else f"sqrt({radicand})"


def root_certificate_fields(lattice: str) -> dict:
    """Certificate fields of a root-system image, from closed forms.

    Root inner products are 0, +-1/2 and -1, so the coherence of the
    degree-2 image is the larger of |g_2(1/2)| and |g_2(0)|.
    """
    make, _, _ = inputs.LATTICES[lattice]
    points = make()
    m, n = len(points[0]), len(points)
    dim = m * (m + 1) // 2 - 1
    coherence = max(abs(degree2_kernel(m, Fraction(1, 2))), abs(degree2_kernel(m, Fraction(0))))
    radicand = (Fraction(n, dim) - 2) / (n - 2)
    return {
        "ambient_dim": dim,
        "n_points": n,
        "coherence": str(coherence),
        "bound": bound_text(n, dim),
        "optimal_antipodal": coherence * coherence == radicand,
    }


def check_certificate(text: str, lattice: str, exit_code: int | None = None) -> list[str]:
    """Pinned bytes, closed-form fields and, for a CLI run, the exit code."""
    errors = []
    if exit_code is not None and exit_code != CERTIFY_EXIT[lattice]:
        errors.append(f"exit code {exit_code}, expected {CERTIFY_EXIT[lattice]}")
    if text != PINNED_CERTIFICATES[lattice]:
        errors.append("certificate bytes differ from the pinned certificate")
    try:
        report = json.loads(text)
    except ValueError:
        return errors + ["certificate is not JSON"]
    for key, want in root_certificate_fields(lattice).items():
        if report.get(key) != want:
            errors.append(f"{key} is {report.get(key)!r}, closed form gives {want!r}")
    return errors


def check_export(gram_text: str, float_text: str, code_text: str) -> list[str]:
    """Every exact Gram entry against s_i s_j g_2(p_i.p_j / norm); float rows by
    unit norm and, on a seeded sample of pairs, by their dot products."""
    m, norm, rows = parse_code(code_text)
    reps = [p for p in rows if p > tuple(-c for c in p)]
    r = len(reps)
    n = 2 * r
    try:
        gram = gram_from_text(gram_text)
    except ValueError as exc:
        return [f"exact gram does not parse: {exc}"]
    if len(gram) != n:
        return [f"exact gram has {len(gram)} rows, expected {n}"]
    witness: dict[int, Fraction] = {}
    errors = []
    for i in range(r):
        for j in range(r):
            dot = sum(a * b for a, b in zip(reps[i], reps[j]))
            if dot not in witness:
                witness[dot] = degree2_kernel(m, Fraction(dot, norm))
            w = witness[dot]
            for a, b, want in ((i, j, w), (i, j + r, -w), (i + r, j, -w), (i + r, j + r, w)):
                if gram[a][b] != want:
                    errors.append(f"gram[{a}][{b}] = {gram[a][b]}, witness {want}")
    errors = _capped(errors)

    lines = float_text.splitlines()
    dim = m * (m + 1) // 2 - 1
    if not lines or lines[0].split() != [str(dim), str(n), "float"]:
        return errors + ["float export header is wrong"]
    try:
        coords = [[float(tok) for tok in line.split()] for line in lines[1:]]
    except ValueError:
        return errors + ["float export has a non-float token"]
    if len(coords) != n or any(len(row) != dim for row in coords):
        return errors + ["float export has the wrong shape"]
    float_errors = []
    for i, row in enumerate(coords):
        if abs(math.fsum(x * x for x in row) - 1) > FLOAT_TOLERANCE:
            float_errors.append(f"float row {i} is not unit norm")
    rng = random.Random(inputs.sha256(code_text))
    for _ in range(FLOAT_PAIR_SAMPLE):
        i, j = rng.randrange(n), rng.randrange(n)
        dot = math.fsum(x * y for x, y in zip(coords[i], coords[j]))
        if abs(dot - float(gram[i][j])) > FLOAT_TOLERANCE:
            float_errors.append(f"float rows {i}, {j} have dot {dot!r}, exact {gram[i][j]}")
    return errors + _capped(float_errors)


def _rising(x: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


def gegenbauer_witness(d: int, k: int) -> list[tuple[Fraction, int]]:
    """(coefficient, power) terms of C_k^lam, lam = (d-1)/2, normalized at t = 1.

    Explicit sum: C_k^lam(t) = sum_j (-1)^j (lam)_{k-j} / (j! (k-2j)!) (2t)^{k-2j}.
    """
    if d < 2:
        raise ValueError("the explicit sum needs lam > 0, that is d >= 2")
    lam = Fraction(d - 1, 2)
    terms = [
        ((-1) ** j * _rising(lam, k - j) * 2 ** (k - 2 * j)
         / (math.factorial(j) * math.factorial(k - 2 * j)), k - 2 * j)
        for j in range(k // 2 + 1)
    ]
    at_one = sum(c for c, _ in terms)
    return [(c / at_one, e) for c, e in terms]


def harmonic_dim_witness(d: int, k: int) -> int:
    """Degree-k harmonics on S^d: C(k+d, d) - C(k+d-2, d)."""
    return math.comb(k + d, d) - (math.comb(k + d - 2, d) if k >= 2 else 0)


def expected_scan_lines(d: int, values: list[Fraction]) -> list[dict]:
    """The scan and candidate records for k = 1..K_MAX, from the witnesses."""
    out = []
    for k in range(1, inputs.SCAN_K_MAX + 1):
        terms = gegenbauer_witness(d, k)
        image = {v: sum(c * v ** e for c, e in terms) for v in sorted(set(values))}
        moduli = {abs(g) for g in image.values()}
        constant = len(moduli) == 1
        dim = harmonic_dim_witness(d, k)
        out.append({
            "d": d,
            "k": k,
            "harmonic_dim": dim,
            "image": {str(v): str(g) for v, g in image.items()},
            "constant_modulus": constant,
            "modulus": str(next(iter(moduli))) if constant else None,
        })
        out.append({
            "ambient_dim": dim,
            "n_points": inputs.SCAN_N_POINTS,
            "coherence": str(max(moduli)),
            "bound": bound_text(inputs.SCAN_N_POINTS, dim),
            "constant_modulus": constant,
        })
    return out


def check_scan(text: str, batch: list[tuple[int, list[Fraction]]]) -> list[str]:
    """Every image value against the explicit Gegenbauer sum, every line in order."""
    errors = []
    expected = [line for d, values in batch for line in expected_scan_lines(d, values)]
    lines = text.splitlines()
    if len(lines) != len(expected):
        return [f"{len(lines)} scan lines, expected {len(expected)}"]
    for i, (line, want) in enumerate(zip(lines, expected)):
        try:
            got = json.loads(line)
        except ValueError:
            errors.append(f"scan line {i} is not JSON")
            continue
        if got != want:
            errors.append(f"scan line {i} is {line.strip()}, witness {json.dumps(want)}")
    return _capped(errors)


def _capped(errors: list[str]) -> list[str]:
    if len(errors) <= MAX_REPORTED:
        return errors
    return errors[:MAX_REPORTED] + [f"... {len(errors) - MAX_REPORTED} more"]
