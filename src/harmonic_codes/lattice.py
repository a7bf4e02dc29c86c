"""E8 root generation and inner-product spectra of equinorm integer codes.

Points are stored as integer coordinate vectors at a declared scale, so
that every normalized inner product is the exact ratio (p.q)/norm_sq_scaled
of two integers, and a spectrum is kept as its scaled dots p.q.  The 240 E8
roots are generated in the even coordinate system (lattice norm^2 = 2) and
multiplied by 2 so the half-integer shape becomes integral: stored norms are
all 8.

Every code is checked once, on the way in, by three whole-code passes at C
speed (dimensions, norms, distinctness); a per-point walk runs only when one
fails, to name the first faulty point.  The reader splits and converts its
rows at C speed, and antipodal representatives are a subset of a checked
code, so they are not checked again.

A code's dot products come from column packing (dot_fields): each
coordinate is packed once, from biased fields, into one big integer, and a
point's row is a few small multiples of those columns, whose byte fields
hold its dots with every point, as wide as the Cauchy-Schwarz bound on the
gcd-reduced norm needs, read by one decoder.  The scaled spectrum tallies
each row's later points, and the exact Gram of a built code maps each row
through its g2 values; the double loop over scaled dot products is the
tests' witness for every row.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from itertools import chain, combinations, compress, product, repeat
from math import gcd
from operator import gt, mul, neg


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
        # three whole-code passes at C speed: dimensions, norms, distinctness
        if (
            set(map(len, points)) <= {ambient_dim}
            and set(map(sum, map(map, repeat(mul), points, points))) <= {norm_sq_scaled}
            and len(set(points)) == len(points)
        ):
            return
        # one failed: walk the points to name the first fault
        seen = set()
        for p in self.points:
            if len(p) != self.ambient_dim:
                raise ValueError(f"point {p} has wrong dimension")
            if scaled_dot(p, p) != self.norm_sq_scaled:
                raise ValueError(f"point {p} is not of the declared norm")
            if p in seen:
                raise ValueError(f"duplicate point {p}")
            seen.add(p)

    def _subset(self, points: tuple[tuple[int, ...], ...]) -> LatticeCode:
        """This checked code with only the given points, some of its own: nothing to re-check."""
        code = object.__new__(LatticeCode)
        vars(code).update(vars(self), points=points)
        return code

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LatticeCode) and vars(self) == vars(other)

    def __len__(self) -> int:
        return len(self.points)

    def normalized_inner(self, i: int, j: int) -> Fraction:
        """Inner product of true points i and j, exact."""
        from fractions import Fraction  # the tests' witness; no subcommand reads it
        return Fraction(
            scaled_dot(self.points[i], self.points[j]), self.norm_sq_scaled
        )

    def is_antipodal(self) -> bool:
        point_set = set(self.points)
        return all(tuple(map(neg, p)) in point_set for p in self.points)


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

    The negations come from one C-level map and are checked against the code
    in one set operation; the kept half is a subset of the already-checked
    code, so it is not checked again.  Raises ValueError naming the first
    point whose negation is missing.
    """
    pts = code.points
    negs = list(map(tuple, map(map, repeat(neg), pts)))
    point_set = set(pts)
    if not point_set.issuperset(negs):
        p = next(p for p, minus in zip(pts, negs) if minus not in point_set)
        raise ValueError(f"point {p} has no antipode in the code")
    return code._subset(tuple(compress(pts, map(gt, pts, negs))))


def dot_fields(code: LatticeCode) -> tuple[Callable[..., int], Iterator[Sequence]]:
    """Each point's dot products with every point, as the fields of one integer.

    Returns (dot, rows): rows yields, for each point i in order, a sequence
    whose j-th key holds p_i . p_j, and dot(key) is that dot product.  A key is
    a biased field of a packed row, its byte when the field is one byte wide,
    else its bytes object; one dot decodes both.  Equal keys hold equal dots,
    so a caller can tally or tabulate keys and decode only the distinct ones.

    The points are divided by their coordinates' gcd g (dot(key) multiplies
    back by g^2, so a scaled code packs as its primitive form).  Column C_k =
    sum_j (p_j[k]/g) B^j, B = 256^width, is packed once: the biased fields
    p_j[k]/g + half joined as bytes, less bias = sum_j half B^j.  Row i is
    bias + sum_k (p_i[k]/g) C_k over its nonzero coordinates, whose base-B
    digit j is p_i . p_j / g^2 + half.  Each digit holds a full dot, which by
    Cauchy-Schwarz and the equinorm premise is at most n = norm_sq_scaled / g^2
    in absolute value; `width` is the least byte count with n < half =
    2^(8 width - 1), so every biased dot, and every biased coordinate (at most
    sqrt(n)), lies in [0, B) and the row's bytes hold the dots with no carry.
    """
    pts = code.points
    coords = set().union(*pts)
    g = gcd(*coords) or 1
    width = (code.norm_sq_scaled // g**2).bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    size = len(pts) * width
    field = {c: (c // g + half).to_bytes(width, "little") for c in coords}
    bias = int.from_bytes(half.to_bytes(width, "little") * len(pts), "little")
    columns = [int.from_bytes(b"".join(map(field.__getitem__, col)), "little") - bias for col in zip(*pts)]

    def rows() -> Iterator[bytes]:
        for p in pts:
            row = bias
            for c, column in zip(p, columns):
                if c:
                    row += c // g * column
            yield row.to_bytes(size, "little")

    def dot(key: int | bytes) -> int:
        return ((key if width == 1 else int.from_bytes(key, "little")) - half) * g**2

    if width == 1:
        return dot, rows()
    from struct import Struct  # only wide fields need it; not loaded at start-up

    return dot, map(Struct(f"{width}s" * len(pts)).unpack, rows())


def scaled_spectrum(code: LatticeCode) -> dict[int, int]:
    """Scaled dot p.q -> count over ordered distinct pairs, in ascending order of the dot.

    The normalized spectrum is each dot over norm_sq_scaled.  Row i of
    dot_fields holds point i's dots with every point; its slice past i holds
    the later points', and those keys are tallied at C speed.
    """
    if len(code) == 0:
        raise ValueError("empty code has no spectrum")
    dot, rows = dot_fields(code)
    later = [row[i + 1 :] for i, row in enumerate(rows)]
    # One-byte keys (n < 128, as for E8 and D16) are counted one distinct key
    # at a time: bytes.translate deletes every copy of the first byte in one C
    # pass, and the length drop is its count; no Python step runs per byte.
    # A wider field's bytes objects go to a Counter; one dot decodes both.
    if isinstance(later[0], bytes):
        tail, tally = b"".join(later), {}
        while tail:
            rest = tail.translate(None, tail[:1])
            tally[tail[0]] = len(tail) - len(rest)
            tail = rest
    else:
        tally = Counter(chain.from_iterable(later))
    # (p,q) and (q,p) carry the same value, so ordered counts are doubled.
    return {s: 2 * c for s, c in sorted((dot(key), c) for key, c in tally.items())}


# --- line-oriented code file format ----------------------------------------
#
# line 1:        ambient_dim N scale norm_sq_scaled
# lines 2..N+1:  ambient_dim space-separated integers


def code_to_text(code: LatticeCode) -> str:
    lines = [f"{code.ambient_dim} {len(code)} {code.scale} {code.norm_sq_scaled}"]
    lines += [" ".join([str(c) for c in p]) for p in code.points]
    return "\n".join(lines) + "\n"


def _integers(tokens: set[str], message: str) -> dict[str, int]:
    """Each distinct token's int, or ValueError(message) if one is not ASCII -?[0-9]+.

    int() alone would also read Python's literal spellings: 0_1, +1 and
    non-ASCII digits such as the Arabic-Indic one.
    """
    try:
        if all(tok.isascii() and tok.removeprefix("-").isdigit() for tok in tokens):
            return {tok: int(tok) for tok in tokens}
    except ValueError:  # more digits than int() converts
        pass
    raise ValueError(message)


def code_from_text(text: str) -> LatticeCode:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty code file")
    header = lines[0].split()
    if len(header) != 4:
        raise ValueError("header must be: ambient_dim N scale norm_sq_scaled")
    value = _integers(set(header), f"bad header {lines[0]!r}")
    ambient_dim, n, scale, norm_sq = map(value.__getitem__, header)
    if n < 0:
        raise ValueError(f"point count {n} is negative")
    # blank lines split to no tokens and are dropped; the rest convert at C speed
    split = list(filter(None, map(str.split, lines[1:])))
    if len(split) != n:
        raise ValueError(f"expected {n} points, found {len(split)}")
    value = _integers(set().union(*split), "non-integer coordinate")
    points = tuple(map(tuple, map(map, repeat(value.__getitem__), split)))
    return LatticeCode(
        ambient_dim=ambient_dim,
        scale=scale,
        norm_sq_scaled=norm_sq,
        points=points,
    )
