"""Degree-2 harmonic embedding of equinorm codes as traceless matrices.

A sphere point x is sent to M_x = (x x^T)/|x|^2 - I/(d+1), a traceless
symmetric matrix with rational entries whenever x has integer scaled
coordinates.  Flattened over one common denominator they are integer
vectors whose normalized dot products are the degree-2 Gegenbauer value
g2 of the source inner product, so the E8 image is an antipodal code with
all non-antipodal inner products 1/7 in absolute value.  A built code takes
its Gram values from integer dot products: the histogram from the lattice
spectrum, the exact Gram from each column-packed dot row of
lattice.dot_fields (a point's dots with every point, one field each) through
one shared Fraction per distinct dot, each formatted once by the exact writer,
which joins each top half-row once, straight from its entries' id lookups in a
token table filled only on a miss, and writes bottom row i + N as top row i
with its halves swapped whenever the two rows show that symmetry.
The float export writes each coordinate in closed form from an integer key
(p_i p_j off the diagonal), formatting each distinct key once.  Its float
witness lives in the tests and recomputes every coordinate from the point
alone; the keys are checked exactly against the explicit matrices
(embed_degree2).

The matrix model lives here too, as plain tuples of Fraction rows, with its
integer flattening (_integer_flat, as acceptance criterion 05 uses it); the
Gram reader parses its tokens with harmonics' p/q parser, still importable
here as parse_rational, and malformed input raises ValueError.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .harmonics import gegenbauer_values, harmonic_dimension, parse_rational
from .lattice import LatticeCode, _integers, dot_fields, select_antipodal_representatives, spectrum


# A matrix as its tuple of Fraction rows: the exact Gram and the degree-2 images.
Rows = tuple[tuple[Fraction, ...], ...]


class EmbeddedCode:
    """Degree-2 image of an antipodal equinorm code, held as its representatives.

    Point i < N is the image of reps.points[i] and point i + N is its sign
    flip, so the 2N x 2N Gram is [[B, -B], [-B, B]] with B[i][j] the kernel
    value g2 of the i-th and j-th representatives' inner product.  Certificates
    read only n and histogram; the exact gram is built on first access.
    """

    def __init__(self, reps: LatticeCode) -> None:
        self.reps = reps

    @property
    def n(self) -> int:
        return 2 * len(self.reps)

    def __len__(self) -> int:
        return self.n

    @property
    def ambient_harmonic_dim(self) -> int:
        return harmonic_dimension(self.reps.ambient_dim - 1, 2)

    def kernel(self, t: Fraction) -> Fraction:
        """g2(t) = (m t^2 - 1)/(m - 1), the Gram value of inner product t."""
        (value,) = gegenbauer_values(self.reps.ambient_dim - 1, t, [2])
        return value

    @cached_property
    def histogram(self) -> Counter:
        """Gram value counts over ordered pairs of distinct points: the Gram spectrum.

        The antipodal pairs give n entries -1; each ordered representative
        pair at inner product t (spectrum counts ordered pairs) appears twice
        as +g2(t) and twice as -g2(t).
        """
        counts = Counter({Fraction(-1): self.n})
        for t, c in spectrum(self.reps).items():
            v = self.kernel(t)
            counts[v] += 2 * c
            counts[-v] += 2 * c
        return counts

    @cached_property
    def gram(self) -> Rows:
        """The exact 2N x 2N Gram: each row of packed dot fields through two kernel tables.

        The tables map each distinct field key to one shared Fraction, +g2 and
        -g2 of its dot; each half-row is built once and serves the top row
        [B, -B] and the bottom row [-B, B].
        """
        dot, rows = dot_fields(self.reps)
        rows, norm = list(rows), self.reps.norm_sq_scaled
        plus = {key: self.kernel(Fraction(dot(key), norm)) for key in set().union(*rows)}
        minus = {key: -v for key, v in plus.items()}
        top, bottom = [], []
        for row in rows:
            b, minus_b = tuple(map(plus.__getitem__, row)), tuple(map(minus.__getitem__, row))
            top.append(b + minus_b)
            bottom.append(minus_b + b)
        return tuple(top + bottom)


def embed_degree2(code: LatticeCode, index: int) -> Rows:
    """Matrix model M_x of the degree-2 kernel element at one code point.

    Depends only on +-x, so antipodal source points share one matrix.
    """
    if code.ambient_dim < 2:
        raise ValueError("ambient dimension must be at least 2")
    if not 0 <= index < len(code):
        raise IndexError(f"point index {index} out of range")
    p = code.points[index]
    n = code.norm_sq_scaled
    m = code.ambient_dim
    return tuple(
        tuple(
            Fraction(p[i] * p[j], n) - (Fraction(1, m) if i == j else 0)
            for j in range(m)
        )
        for i in range(m)
    )


def _integer_flat(matrix: Rows, denom: int) -> tuple[int, ...]:
    """Entries of denom * matrix flattened row-major; denom clears them all."""
    flat = []
    for row in matrix:
        for x in row:
            scaled = x * denom
            if scaled.denominator != 1:
                raise ValueError("common denominator does not clear entries")
            flat.append(scaled.numerator)
    return tuple(flat)


def build_code(roots: LatticeCode) -> EmbeddedCode:
    """Embed an antipodal equinorm code, kept as one point per antipodal pair."""
    reps = select_antipodal_representatives(roots)
    if not reps.points:
        raise ValueError("code has no points to embed")
    if reps.ambient_dim < 2:
        raise ValueError("ambient dimension must be at least 2")
    return EmbeddedCode(reps)


def _coordinate_keys(p: tuple[int, ...]) -> list:
    """The integers each coordinate of M_x, x = p/|p|, is a closed form of.

    Basis of the traceless symmetric matrices of order m: the off-diagonal
    units (e_i e_j^T + e_j e_i^T)/sqrt(2) for i < j, then the diagonal
    chain diag(1,...,1,-r,0,...,0)/sqrt(r(r+1)) for r = 1..m-1.  With
    n = |p|^2 the -I/m term cancels in every coordinate and |M_x|^2 =
    (m - 1)/m, so each unit coordinate is an integer ratio over one norm:
    off the diagonal, coordinate (i, j) depends only on p_i p_j; on it, chain
    element r depends only on (s, r), s = sum_{k<r} p_k^2 - r p_r^2.  There
    are m(m+1)/2 - 1 keys, one per coordinate.
    """
    keys = [a * b for a, b in combinations(p, 2)]
    partial = 0
    for r in range(1, len(p)):
        partial += p[r - 1] * p[r - 1]
        keys.append((partial - r * p[r] * p[r], r))
    return keys


def _coordinate(key, n: int, norm: float) -> float:
    """The closed form of one coordinate from its key over the norms n = |p|^2 and |M_x|."""
    if isinstance(key, tuple):
        s, r = key
        return (s / n) / (math.sqrt(r * (r + 1)) * norm)
    return math.sqrt(2.0) * (key / n) / norm


# --- export formats ---------------------------------------------------------


def float_code_to_text(code: EmbeddedCode) -> str:
    """Header `dim N float`, then one row of 17-significant-digit floats per point.

    The N representative rows come first, then the same rows negated.  Each
    distinct coordinate key is formatted once; its negation toggles the
    token's leading `-`, which is how `.17g` writes -x (0 gives -0).
    """
    reps = code.reps
    n, m = reps.norm_sq_scaled, reps.ambient_dim
    norm = math.sqrt((m - 1) / m)
    rows = [_coordinate_keys(p) for p in reps.points]
    plus = {key: f"{_coordinate(key, n, norm):.17g}" for key in set().union(*rows)}
    minus = {key: t[1:] if t[0] == "-" else "-" + t for key, t in plus.items()}
    lines = [f"{code.ambient_harmonic_dim} {len(code)} float"]
    for tokens in (plus, minus):
        lines += [" ".join(map(tokens.__getitem__, row)) for row in rows]
    return "\n".join(lines) + "\n"


def gram_to_text(gram: Rows) -> str:
    """Header `N`, then N lines of N exact rational tokens.

    Each distinct entry object is formatted once, into one token table keyed
    by id(x) across rows: the Gram keeps every entry alive, so no id repeats.
    Each half-row is joined straight from its id lookups; only a lookup that
    misses (a KeyError) fills the table from that part and joins it again.
    Built and read-back Grams share their entries, so only their first rows
    miss.  A Gram whose equal values are distinct objects misses on every
    part and pays a failed join before each fill: ~9x the built Gram's time.

    Top row i < h = N // 2 joins its two halves once; bottom row i + h is
    those halves swapped when row[:h] == top[h:] and row[h:] == top[:h], as
    in [[B, -B], [-B, B]] (str(Fraction) is canonical: equal entries, equal
    tokens).  Any other bottom row is joined whole, as is every bottom row of
    an odd N, whose halves differ in length so the check fails.
    """
    h = len(gram) // 2
    token, swapped, lines = {}, [], [str(len(gram))]
    get = token.__getitem__

    def joined(part: tuple[Fraction, ...]) -> str:
        try:
            return " ".join(map(get, map(id, part)))
        except KeyError:
            token.update({k: str(x) for k, x in dict(zip(map(id, part), part)).items() if k not in token})
            return " ".join(map(get, map(id, part)))

    for i, row in enumerate(gram):
        if i >= h and row[:h] == (top := gram[i - h])[h:] and row[h:] == top[:h]:
            lines.append(swapped[i - h])
        elif i < h:
            left, right = joined(row[:h]), joined(row[h:])
            swapped.append(right + " " + left)
            lines.append(left + " " + right)
        else:
            lines.append(joined(row))
    return "\n".join(lines) + "\n"


def gram_from_text(text: str) -> Rows:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty gram file")
    header = lines[0].strip()
    n = _integers({header}, f"bad gram header {lines[0]!r}")[header]
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} gram rows, found {len(lines) - 1}")
    rows, parsed = [], {}  # one Fraction per distinct token
    for line in lines[1:]:
        tokens = line.split()
        try:
            for tok in dict.fromkeys(tokens):
                if tok not in parsed:
                    parsed[tok] = parse_rational(tok)
        except ValueError as exc:
            raise ValueError("bad rational token in gram row") from exc
        row = tuple(map(parsed.__getitem__, tokens))
        if len(row) != n:
            raise ValueError("gram row has wrong length")
        rows.append(row)
    return tuple(rows)
