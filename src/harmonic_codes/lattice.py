"""E8 root generation and inner-product spectra of equinorm integer codes.

Points are stored as integer coordinate vectors at a declared scale, so
that every normalized inner product (p.q)/norm_sq_scaled is an exact
Fraction.  The 240 E8 roots are generated in the even coordinate system
(lattice norm^2 = 2) and multiplied by 2 so the half-integer shape
becomes integral: stored norms are all 8.

A code's dot products come from Kronecker packing (dot_fields): one
big-integer product per point gives its dots with every point, in byte
fields as wide as the Cauchy-Schwarz bound on the norm needs.  The spectrum
tallies each row's later points, and the exact Gram of a built code maps
each row through its kernel values; the double loop over scaled dot
products is the tests' witness for every row.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from itertools import chain, combinations, product
from operator import mul

# Normalized inner-product value -> count over ordered distinct pairs.
Spectrum = dict[Fraction, int]


def scaled_dot(p: tuple[int, ...], q: tuple[int, ...]) -> int:
    return sum(map(mul, p, q))


class LatticeCode:
    """Equinorm integer point set representing a spherical code exactly.

    The true point for a stored vector p is p/sqrt(norm_sq_scaled); all
    pairwise inner products of true points are rational and are computed
    as (p.q)/norm_sq_scaled without ever forming the square root.  Two codes
    are equal when their four fields are.
    """

    def __init__(
        self, ambient_dim: int, scale: int, norm_sq_scaled: int, points: tuple[tuple[int, ...], ...]
    ) -> None:
        self.ambient_dim, self.scale = ambient_dim, scale
        self.norm_sq_scaled, self.points = norm_sq_scaled, points
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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LatticeCode) and vars(self) == vars(other)

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


def dot_fields(code: LatticeCode) -> tuple[Callable[..., int], Iterator[Sequence]]:
    """Each point's dot products with every point, as the fields of one product.

    Returns (dot, rows): rows yields, for each point i in order, a sequence
    whose j-th key holds p_i . p_j, and dot(key) is that dot product.  A key is
    a biased field of a packed product: its byte when the field is one byte
    wide, else the bytes object of the field.  Equal keys hold equal dots, so a
    caller can tally or tabulate keys and decode only the distinct ones.

    The N points are packed into one integer as W = 2m - 1 signed slots of
    `width` bytes each, point j's coordinates at slots jW .. jW + m - 1.  Its
    product with point i's reversed row holds p_i . p_j at slot jW + m - 1,
    and every other slot a dot of sub-vectors of p_i and p_j.  By
    Cauchy-Schwarz and the equinorm premise no slot exceeds n = norm_sq_scaled
    in absolute value, and `width` is the least byte count with
    n < half = 2^(8 width - 1); so adding `half` to every slot makes each one
    a base-256^width digit, and the product's bytes hold the dots with no
    carry between them.
    """
    pts, m, norm = code.points, code.ambient_dim, code.norm_sq_scaled
    width = norm.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    slots = 2 * m - 1
    size = len(pts) * slots * width
    coords = set().union(*pts)
    gap = bytes((m - 1) * width)

    def part(sign: int) -> int:
        """The points' coordinates of that sign, as magnitudes in their slots."""
        field = {c: max(sign * c, 0).to_bytes(width, "little") for c in coords}
        joined = gap.join([b"".join(map(field.__getitem__, p)) for p in pts])
        return int.from_bytes(joined, "little")

    packed = part(1) - part(-1)
    bias = int.from_bytes(half.to_bytes(width, "little") * (len(pts) * slots), "little")
    if width == 1:
        def keys(digits: bytes) -> bytes:
            return digits[m - 1 :: slots]

        def dot(key: int) -> int:
            return key - half
    else:
        from struct import Struct  # only wide fields need it; not loaded at start-up

        pad = f"{(m - 1) * width}x"
        keys = Struct(f"{pad}{width}s{pad}" * len(pts)).unpack

        def dot(key: bytes) -> int:
            return int.from_bytes(key, "little") - half

    def rows() -> Iterator[Sequence]:
        for p in pts:
            row = 0
            for c in p:
                row = (row << 8 * width) + c
            yield keys((packed * row + bias).to_bytes(size, "little"))

    return dot, rows()


def spectrum(code: LatticeCode) -> Spectrum:
    """Normalized inner-product counts over ordered distinct pairs.

    Row i of dot_fields holds point i's dots with every point; its slice past
    i holds the later points', and those keys are tallied at C speed.
    """
    if len(code) == 0:
        raise ValueError("empty code has no spectrum")
    dot, rows = dot_fields(code)
    later = [row[i + 1 :] for i, row in enumerate(rows)]
    # One-byte keys (n < 128, as for E8 and D16) are counted by bytes.count;
    # a wider field's bytes objects by a Counter.
    if isinstance(later[0], bytes):
        tail = b"".join(later)
        tally = {key: tail.count(key) for key in set(tail)}
    else:
        tally = Counter(chain.from_iterable(later))
    # (p,q) and (q,p) carry the same value, so ordered counts are doubled.
    counts = sorted((dot(key), c) for key, c in tally.items())
    return {Fraction(s, code.norm_sq_scaled): 2 * c for s, c in counts}


# --- line-oriented code file format ----------------------------------------
#
# line 1:        ambient_dim N scale norm_sq_scaled
# lines 2..N+1:  ambient_dim space-separated integers


def code_to_text(code: LatticeCode) -> str:
    lines = [f"{code.ambient_dim} {len(code)} {code.scale} {code.norm_sq_scaled}"]
    lines += [" ".join([str(c) for c in p]) for p in code.points]
    return "\n".join(lines) + "\n"


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
