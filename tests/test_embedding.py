import hashlib
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonic_codes import embedding, lattice
from harmonic_codes.cli import main
from harmonic_codes.codes import certify, report_to_json
from harmonic_codes.embedding import (
    _integer_flat,
    build_code,
    embed_degree2,
    float_code_to_text,
    gram_from_text,
    gram_to_text,
    parse_rational,
)
from harmonic_codes.harmonics import gegenbauer
from harmonic_codes.lattice import (
    LatticeCode,
    code_from_text,
    code_to_text,
    dot_fields,
    generate_e8_roots,
    scaled_spectrum,
)

# split of the 57120 non-antipodal gram entries, frozen from the exact scan
POSITIVE_SEVENTH_COUNT = 28560
NEGATIVE_SEVENTH_COUNT = 28560

# sha256 of the E8 exports: any change to their bytes, float rounding included, fails
FLOAT_EXPORT_SHA256 = "17146d12388234c5fec02a6790f208284e92caf684b740a1d64724964b212acb"
EXACT_GRAM_SHA256 = "48165c816858619c30f6e65dfd8ee7fe4ef759cc4df436a807cd8724036f54e7"


def spectrum(code):
    """The normalized inner-product spectrum: each scaled dot over the norm, as a Fraction."""
    return {Fraction(s, code.norm_sq_scaled): c for s, c in scaled_spectrum(code).items()}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _float_rows(code):
    return [[float(x) for x in line.split()] for line in float_code_to_text(code).splitlines()[1:]]


def flatten_coordinates(code, index):
    """The float writer's witness: the unit coordinates of M_x, from p = code.points[index] alone.

    With n = |p|^2 and |M| = sqrt((m-1)/m), the off-diagonal coordinates
    (i < j) are sqrt(2) (p_i p_j / n) / |M|, then the diagonal chain gives
    (sum_{k<r} p_k^2 - r p_r^2) / n / (sqrt(r(r+1)) |M|) for r = 1..m-1.
    """
    p, n, m = code.points[index], code.norm_sq_scaled, code.ambient_dim
    norm = math.sqrt((m - 1) / m)
    off = [math.sqrt(2.0) * (p[i] * p[j] / n) / norm for i, j in combinations(range(m), 2)]
    chain = [
        (sum(c * c for c in p[:r]) - r * p[r] * p[r]) / n / (math.sqrt(r * (r + 1)) * norm)
        for r in range(1, m)
    ]
    return off + chain


def _witness(code, i, j):
    """Normalized Frobenius product of the degree-2 matrices of points i and j,
    as integer dot products over one common denominator (acceptance criterion 05)."""
    denom = code.norm_sq_scaled * code.ambient_dim
    a, b = (_integer_flat(embed_degree2(code, t), denom) for t in (i, j))
    return Fraction(sum(x * y for x, y in zip(a, b)), sum(x * x for x in a))


def test_embedded_matrix_of_first_shape(e8_roots):
    idx = e8_roots.points.index((2, 2, 0, 0, 0, 0, 0, 0))
    m = embed_degree2(e8_roots, idx)
    for i in range(8):
        expected = Fraction(3, 8) if i < 2 else Fraction(-1, 8)
        assert m[i][i] == expected
    assert m[0][1] == Fraction(1, 2)
    assert m[0][2] == 0
    assert sum(m[i][i] for i in range(len(m))) == 0


def test_embedding_identifies_antipodes(e8_roots):
    i = e8_roots.points.index((2, 2, 0, 0, 0, 0, 0, 0))
    j = e8_roots.points.index((-2, -2, 0, 0, 0, 0, 0, 0))
    assert embed_degree2(e8_roots, i) == embed_degree2(e8_roots, j)


def test_embed_index_out_of_range(e8_roots):
    with pytest.raises(IndexError):
        embed_degree2(e8_roots, 240)
    # the witness's other guards: a denominator that leaves fractions, a 1-D code
    pair = LatticeCode(3, 1, 1, ((1, 0, 0), (-1, 0, 0)))
    with pytest.raises(ValueError, match="common denominator does not clear entries"):
        _integer_flat(embed_degree2(pair, 0), 1)
    assert _integer_flat(embed_degree2(pair, 0), 3) == (2, 0, 0, 0, -1, 0, 0, 0, -1)
    with pytest.raises(ValueError, match="ambient dimension must be at least 2"):
        embed_degree2(LatticeCode(1, 1, 1, ((1,), (-1,))), 0)


def test_normalized_inner_self_is_one(e8_roots):
    assert _witness(e8_roots, 0, 0) == 1


def test_normalized_inner_reproduces_kernel_values(e8_roots):
    pts = e8_roots.points
    i = pts.index((2, 2, 0, 0, 0, 0, 0, 0))
    j = pts.index((2, 0, 2, 0, 0, 0, 0, 0))   # normalized inner product 1/2
    k = pts.index((2, 0, 0, 2, 0, 0, 0, 0))
    orth = pts.index((0, 0, 2, 2, 0, 0, 0, 0))  # orthogonal to pts[i]
    assert e8_roots.normalized_inner(i, j) == Fraction(1, 2)
    assert e8_roots.normalized_inner(i, orth) == 0
    assert _witness(e8_roots, i, j) == Fraction(1, 7)
    assert _witness(e8_roots, i, orth) == Fraction(-1, 7)
    assert _witness(e8_roots, i, k) == Fraction(1, 7)


def test_kernel_identity_on_sampled_pairs(e8_roots):
    # explicit-matrix route, independent of the gram fast path
    g2 = gegenbauer(7, 2)
    rng = random.Random(17)
    for _ in range(150):
        i, j = rng.randrange(240), rng.randrange(240)
        assert _witness(e8_roots, i, j) == g2.evaluate(e8_roots.normalized_inner(i, j))


def test_build_code_shape(e8_code):
    assert len(e8_code) == 240
    assert e8_code.ambient_harmonic_dim == 35
    assert len(e8_code.gram) == 240
    assert all(len(row) == 240 for row in e8_code.gram)
    # the representatives come first and their sign flips second: each
    # quadrant of the Gram is +-B, B the Frobenius Gram of the representatives
    for i in (0, 7, 119):
        for j in range(120):
            b = _witness(e8_code.reps, i, j)
            assert e8_code.gram[i][j] == e8_code.gram[i + 120][j + 120] == b
            assert e8_code.gram[i + 120][j] == e8_code.gram[i][j + 120] == -b


def test_build_code_gram_values(e8_code):
    counts = Counter(
        v for i, row in enumerate(e8_code.gram) for j, v in enumerate(row) if i != j
    )
    assert counts == {
        Fraction(-1): 240,
        Fraction(1, 7): POSITIVE_SEVENTH_COUNT,
        Fraction(-1, 7): NEGATIVE_SEVENTH_COUNT,
    }


def test_build_code_diagonal_and_antipodes(e8_code):
    for i in range(240):
        assert e8_code.gram[i][i] == 1
        partner = (i + 120) % 240
        assert e8_code.gram[i][partner] == -1
        row_minus_ones = [j for j in range(240) if e8_code.gram[i][j] == -1]
        assert row_minus_ones == [partner]


def test_gram_matches_pointwise_inner(e8_code):
    rng = random.Random(23)
    for _ in range(60):
        i, j = rng.randrange(240), rng.randrange(240)
        # point i + 120 is the sign flip of point i
        s = 1 if (i >= 120) == (j >= 120) else -1
        assert e8_code.gram[i][j] == s * _witness(e8_code.reps, i % 120, j % 120)


def test_embedded_points_are_equinorm(e8_roots):
    images = [embed_degree2(e8_roots, i) for i in range(240)]
    assert {sum(m[i][i] for i in range(len(m))) for m in images} == {0}
    assert {sum(x * x for row in m for x in row) for m in images} == {Fraction(7, 8)}


def test_build_code_rejects_non_antipodal():
    code = LatticeCode(2, 1, 2, ((1, 1), (1, -1)))
    with pytest.raises(ValueError, match=r"point \(1, 1\) has no antipode"):
        build_code(code)


@pytest.mark.parametrize("n", [8, 16], ids=["e8", "d16"])
def test_parse_and_build_check_each_point_once(n, monkeypatch):
    # a valid text: LatticeCode's whole-code check runs once, for the parsed
    # code, and its per-point walk, which reads norms through scaled_dot, never
    roots = generate_e8_roots() if n == 8 else _dn_roots(n)
    text = code_to_text(roots)
    inits, dots = [], []
    init, dot = LatticeCode.__init__, lattice.scaled_dot

    def counted_init(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    def counted_dot(p, q):
        dots.append(p)
        return dot(p, q)

    monkeypatch.setattr(LatticeCode, "__init__", counted_init)
    monkeypatch.setattr(lattice, "scaled_dot", counted_dot)
    built = build_code(code_from_text(text))
    assert len(inits) == 1 and dots == []
    assert len(built.reps) == len(roots) // 2
    assert built.reps.points == tuple(p for p in roots.points if p > tuple(-c for c in p))
    # a fault takes the walk, which names the first faulty point
    with pytest.raises(ValueError, match=r"point \(1, 1\) is not of the declared norm"):
        LatticeCode(2, 1, 1, ((1, 0), (0, 1), (1, 1)))
    assert dots == [(1, 0), (0, 1), (1, 1)]


def test_build_code_rejects_empty_code():
    with pytest.raises(ValueError, match="no points"):
        build_code(LatticeCode(8, 2, 8, ()))


def test_flatten_length_and_norm(e8_code):
    rows = _float_rows(e8_code)
    assert flatten_coordinates(e8_code.reps, 0) == rows[0]
    for coords in (rows[0], rows[150]):
        assert len(coords) == 35
        norm = math.sqrt(sum(x * x for x in coords))
        assert abs(norm - 1.0) <= 1e-12


def test_flatten_sign(e8_code):
    rows = _float_rows(e8_code)
    assert flatten_coordinates(e8_code.reps, 5) == rows[5]
    assert rows[125] == [-x for x in rows[5]]


def test_flatten_preserves_inner_products(e8_code):
    rng = random.Random(29)
    flats = _float_rows(e8_code)
    for _ in range(80):
        i, j = rng.randrange(240), rng.randrange(240)
        dot = sum(x * y for x, y in zip(flats[i], flats[j]))
        assert abs(dot - float(e8_code.gram[i][j])) <= 1e-12


def test_float_export_format(e8_code):
    text = float_code_to_text(e8_code)
    lines = text.splitlines()
    assert lines[0] == "35 240 float"
    assert len(lines) == 241
    row = [float(tok) for tok in lines[1].split()]
    assert len(row) == 35


def _dn_roots(n):
    """The 2n(n - 1) roots +-e_i +-e_j of D_n."""
    points = []
    for i, j in combinations(range(n), 2):
        for si, sj in product((-1, 1), repeat=2):
            v = [0] * n
            v[i], v[j] = si, sj
            points.append(tuple(v))
    return LatticeCode(n, 1, 2, tuple(points))


def _signed_permutations(base):
    """Every signed permutation of base: an antipodal code of norm |base|^2."""
    points = {
        tuple(s * c for s, c in zip(signs, perm))
        for perm in permutations(base)
        for signs in product((-1, 1), repeat=len(base))
    }
    return LatticeCode(len(base), 1, sum(c * c for c in base), tuple(sorted(points)))


# Coprime coordinates of norm 130: no gcd narrows its 2-byte dot field
WIDE_FIELD = _signed_permutations((11, 3, 0))


@st.composite
def antipodal_codes(draw):
    """Signed permutations of one integer vector, closed under negation."""
    base = draw(st.lists(st.integers(-6, 6), min_size=2, max_size=6).filter(any))
    rng = draw(st.randoms(use_true_random=False))
    count = draw(st.integers(1, 20))
    points = {tuple(rng.choice((-1, 1)) * c for c in rng.sample(base, len(base))) for _ in range(count)}
    points |= {tuple(-c for c in p) for p in points}
    return LatticeCode(len(base), 1, sum(c * c for c in base), tuple(sorted(points)))


@settings(max_examples=100, deadline=None)
@given(antipodal_codes())
@example(_dn_roots(16))
def test_float_export_is_plain_formatting_of_the_witness(roots):
    # the per-key token table and the sign toggle against `.17g` of every
    # witness coordinate, and of its negation (-0 for a zero) in the second half
    code = build_code(roots)
    rows = [flatten_coordinates(code.reps, i) for i in range(len(code.reps))]
    lines = [f"{code.ambient_harmonic_dim} {len(code)} float"]
    lines += [" ".join(f"{x:.17g}" for x in row) for row in rows]
    lines += [" ".join(f"{-x:.17g}" for x in row) for row in rows]
    # line lists, so a failure names the first differing line (no difflib of ~2 MB)
    assert float_code_to_text(code).split("\n") == lines + [""]


@settings(max_examples=100, deadline=None)
@given(antipodal_codes())
@example(generate_e8_roots())
@example(_dn_roots(16))
def test_coordinate_keys_are_exact_closed_forms_of_the_matrix_model(roots):
    # every point's float keys against its explicit M_x, exactly: an off-diagonal
    # key over n is M[i][j], a chain key (s, r) gives s/n = sum_{k<r} M[k][k]
    # - r M[r][r], and the coordinates' squares sum to |M_x|^2 = (m - 1)/m
    n, m = roots.norm_sq_scaled, roots.ambient_dim
    pairs = list(combinations(range(m), 2))
    for index, p in enumerate(roots.points):
        matrix = embed_degree2(roots, index)
        keys = embedding._coordinate_keys(p)
        off, chain = keys[: len(pairs)], keys[len(pairs) :]
        assert [Fraction(key, n) for key in off] == [matrix[i][j] for i, j in pairs]
        assert [r for _, r in chain] == list(range(1, m))
        diagonal = [matrix[r][r] for r in range(m)]
        assert [Fraction(s, n) for s, _ in chain] == [sum(diagonal[:r]) - r * diagonal[r] for r in range(1, m)]
        squares = sum(2 * matrix[i][j] ** 2 for i, j in pairs)
        squares += sum(Fraction(s, n) ** 2 / (r * (r + 1)) for s, r in chain)
        assert squares == Fraction(m - 1, m)


def _gram_text_witness(gram):
    """The exact writer's witness: str() of every entry, row by row."""
    lines = [str(len(gram))]
    lines += [" ".join([str(x) for x in row]) for row in gram]
    return "\n".join(lines) + "\n"


def _unswapped(gram):
    """The Gram with one entry of bottom row N's left half changed."""
    h = len(gram) // 2
    row = gram[h]
    return gram[:h] + ((row[0] + 1,) + row[1:],) + gram[h + 1 :]


def _fresh_entry(gram):
    """The Gram with the last entry of top row N - 1 a fresh Fraction of equal value."""
    h = len(gram) // 2
    row = gram[h - 1]
    fresh = Fraction(row[-1].numerator, row[-1].denominator)
    return gram[: h - 1] + (row[:-1] + (fresh,),) + gram[h:]


# The Grams gram_to_text meets: built, read back, and one whose equal values
# are distinct objects, which no caller makes but the id-keyed table must
# still write right; one whose only new object after row 0 sits in a later
# top row's right half, so that half's lookup misses once the table is warm;
# then two that break the swapped-halves premise, so their bottom rows are
# joined whole
GRAM_KINDS = {
    "built": lambda gram: gram,
    "read-back": lambda gram: gram_from_text(_gram_text_witness(gram)),
    "distinct": lambda gram: tuple(tuple(Fraction(x.numerator, x.denominator) for x in row) for row in gram),
    "fresh-entry": _fresh_entry,
    "unswapped": _unswapped,
    "odd": lambda gram: tuple(row[:-1] for row in gram[:-1]),
}


@pytest.mark.parametrize("kind", GRAM_KINDS)
@settings(max_examples=60, deadline=None)
@given(antipodal_codes())
@example(_dn_roots(4))  # g2(1/2) = 0 at m = 4: the 0 token in both blocks
@example(WIDE_FIELD)
# two points, h = 1; the odd kind cuts the Gram to 1 x 1, where h = 0
@example(LatticeCode(2, 1, 1, ((-1, 0), (1, 0))))
def test_gram_text_matches_the_witness(kind, roots):
    gram = GRAM_KINDS[kind](build_code(roots).gram)
    assert gram_to_text(gram).split("\n") == _gram_text_witness(gram).split("\n")


def test_writer_formats_each_entry_object_once(e8_code, monkeypatch):
    # the token table is filled only on a miss, and a fill skips the ids it holds
    gram, calls, format_fraction = e8_code.gram, Counter(), Fraction.__str__

    def counted(x):
        calls[id(x)] += 1
        return format_fraction(x)

    monkeypatch.setattr("fractions.Fraction.__str__", counted)
    assert gram_to_text(gram).startswith("240\n1 ")
    assert set(calls.values()) == {1}
    assert set(calls) <= {id(x) for row in gram for x in row}


def test_built_gram_shares_its_entries(e8_code):
    # at most one +g2 and one -g2 object per distinct dot key: the sharing
    # that lets gram_to_text format a few objects, not 57,600 entries
    _, rows = dot_fields(e8_code.reps)
    keys = set().union(*rows)
    assert len({id(x) for row in e8_code.gram for x in row}) <= 2 * len(keys)


def test_wide_field_code_packs_wide():
    # gcd 1 and norm 130 >= 128: rows of 2-byte fields, unpacked as tuples
    assert type(next(dot_fields(WIDE_FIELD)[1])) is tuple


def _scaled(code, s):
    return LatticeCode(
        code.ambient_dim, code.scale * s, code.norm_sq_scaled * s * s,
        tuple(tuple(s * c for c in p) for p in code.points),
    )


@settings(max_examples=60, deadline=None)
@given(antipodal_codes(), st.integers(1, 10**8))
@example(WIDE_FIELD, 10**8)
@example(_dn_roots(4), 12)
def test_scaling_keeps_spectrum_and_gram(roots, s):
    # the packer divides out the coordinates' gcd: the scaled code packs in
    # the primitive code's field width and gives the same values
    scaled = _scaled(roots, s)
    assert spectrum(scaled) == spectrum(roots)
    assert build_code(scaled).gram == build_code(roots).gram
    assert type(next(dot_fields(scaled)[1])) is type(next(dot_fields(roots)[1]))


def test_gram_text_round_trip(e8_code):
    text = gram_to_text(e8_code.gram)
    assert text.splitlines()[0] == "240"
    rows = gram_from_text(text)
    assert rows == e8_code.gram
    # one Fraction per distinct token: the entries are shared, not rebuilt
    entries = [x for row in rows for x in row]
    assert len({id(x) for x in entries}) == len(set(entries)) == len(set(text.split()[1:]))


def _euclid_gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


# Byte-identical output relies on Fraction's canonical form: a positive,
# gcd-reduced denominator, so str() gives one token per value.


def test_rat_reduces():
    r = Fraction(2, 4)
    assert (r.numerator, r.denominator) == (1, 2)


def test_rat_normalizes_sign():
    assert (Fraction(-3, -6).numerator, Fraction(-3, -6).denominator) == (1, 2)
    assert str(Fraction(3, -6)) == "-1/2"


def test_rat_large_reduction_matches_euclid():
    # independent oracle: reduce 8160/399840 by the Euclidean algorithm
    g = _euclid_gcd(8160, 399840)
    assert g == 8160
    r = Fraction(8160, 399840)
    assert (r.numerator, r.denominator) == (8160 // g, 399840 // g) == (1, 49)


def test_random_rationals_are_canonical():
    rng = random.Random(7)
    for _ in range(300):
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**6) * rng.choice([-1, 1])
        r = Fraction(num, den)
        assert r.denominator > 0
        assert math.gcd(abs(r.numerator), r.denominator) == 1


def test_field_axioms_on_random_rationals():
    rng = random.Random(11)

    def q():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    for _ in range(200):
        a, b, c = q(), q(), q()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


def test_parse_rational_tokens():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(" -3/6\n") == Fraction(-1, 2)  # whitespace around the token is read
    # Fraction() alone would read the Arabic-Indic digit and `_` separators:
    # as 1/7, 10/7 and 1/7; from Python 3.12 on, also spaces around the slash
    for token in ("1/0", "x", "\u0661/7", "1_0/7", "1/0_7", "1 / 2", "1 /2"):
        with pytest.raises(ValueError, match="bad rational token"):
            parse_rational(token)
    for token in ("1e400", "2.5E-3", "1e29999999"):
        with pytest.raises(ValueError, match="exponent notation is not accepted"):
            parse_rational(token)


def test_gram_text_rejects_malformed():
    with pytest.raises(ValueError, match="empty gram file"):
        gram_from_text("")
    with pytest.raises(ValueError, match="expected 2 gram rows, found 1"):
        gram_from_text("2\n1 0\n")
    with pytest.raises(ValueError, match="gram row has wrong length"):
        gram_from_text("1\n1 0\n")
    with pytest.raises(ValueError, match="bad rational token in gram row"):
        gram_from_text("1\nx\n")
    with pytest.raises(ValueError, match="bad gram header 'x'"):
        gram_from_text("x")
    # the header is ASCII -?[0-9]+, as in code files: no literal spellings
    for header in ("+1", "0_1", "\u0661"):
        with pytest.raises(ValueError, match=re.escape(f"bad gram header '{header}'")):
            gram_from_text(f"{header}\n1\n")
    with pytest.raises(ValueError, match="bad rational token in gram row"):
        gram_from_text("1\n1e400\n")
    # a token first seen in a later row is still parsed, and still rejected
    with pytest.raises(ValueError, match="bad rational token in gram row"):
        gram_from_text("2\n1 0\n0 1e5\n")
    with pytest.raises(ValueError, match="gram row has wrong length"):
        gram_from_text("2\n1 0\n0\n")


def test_export_bytes_are_pinned():
    code = build_code(generate_e8_roots())
    assert _sha256(float_code_to_text(code)) == FLOAT_EXPORT_SHA256
    assert _sha256(gram_to_text(code.gram)) == EXACT_GRAM_SHA256


class _MatrixBuilt(Exception):
    pass


def test_certificates_build_no_matrices(e8_roots, readme_certificate, tmp_path, capsys, monkeypatch):
    readme = json.loads(readme_certificate)
    path = tmp_path / "e8.code"
    path.write_text(code_to_text(e8_roots), encoding="utf-8")

    def refuse(code, index):
        raise _MatrixBuilt(index)

    monkeypatch.setattr(embedding, "embed_degree2", refuse)
    code = build_code(e8_roots)
    assert json.loads(report_to_json(certify(code))) == readme
    assert main(["certify", "--in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == readme
    # the float export is written from the integer representatives alone
    assert _sha256(float_code_to_text(code)) == FLOAT_EXPORT_SHA256
    assert main(["export", "--float", "--in", str(path)]) == 0
    assert _sha256(capsys.readouterr().out) == FLOAT_EXPORT_SHA256
