import io
import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonic_codes.lattice import (
    LatticeCode,
    code_from_text,
    code_to_text,
    dot_fields,
    scaled_dot,
    select_antipodal_representatives,
)
from test_embedding import _signed_permutations as _every_signed_permutation
from test_embedding import spectrum


def test_root_count_and_header_fields(e8_roots):
    assert len(e8_roots) == 240
    assert e8_roots.ambient_dim == 8
    assert e8_roots.scale == 2
    assert e8_roots.norm_sq_scaled == 8


def test_known_roots_present_and_absent(e8_roots):
    pts = set(e8_roots.points)
    assert (2, 2, 0, 0, 0, 0, 0, 0) in pts
    assert (1, 1, 1, 1, 1, 1, 1, 1) in pts
    # odd number of minus signs is not a root
    assert (1, -1, 1, 1, 1, 1, 1, 1) not in pts


def test_shape_counts(e8_roots):
    two_shape = [p for p in e8_roots.points if sorted(map(abs, p)) == [0] * 6 + [2, 2]]
    one_shape = [p for p in e8_roots.points if sorted(map(abs, p)) == [1] * 8]
    assert len(two_shape) == 112
    assert len(one_shape) == 128
    assert len(two_shape) + len(one_shape) == 240


def test_antipodal_closure(e8_roots):
    assert e8_roots.is_antipodal()


def test_points_sorted_for_determinism(e8_roots):
    assert list(e8_roots.points) == sorted(e8_roots.points)


def test_per_root_dot_histogram(e8_roots):
    # brute force over all 240x240 scaled dot products
    expected = {8: 1, 4: 56, 0: 126, -4: 56, -8: 1}
    for p in e8_roots.points:
        hist = Counter(scaled_dot(p, q) for q in e8_roots.points)
        assert dict(hist) == expected


def test_dots_are_even_lattice_values(e8_roots):
    allowed = {-8, -4, 0, 4, 8}
    for p in e8_roots.points:
        for q in e8_roots.points:
            assert scaled_dot(p, q) in allowed


def test_representative_selection(e8_roots):
    reps = select_antipodal_representatives(e8_roots)
    assert len(reps) == 120
    rep_set = set(reps.points)
    for p in rep_set:
        assert tuple(-c for c in p) not in rep_set
    # union with its negation restores the full root set, and re-selection
    # from that union returns the same representatives
    full = rep_set | {tuple(-c for c in p) for p in rep_set}
    assert full == set(e8_roots.points)
    again = select_antipodal_representatives(
        LatticeCode(8, 2, 8, tuple(sorted(full)))
    )
    assert set(again.points) == rep_set


def test_representative_keeps_lexicographically_larger():
    code = LatticeCode(2, 1, 1, ((-1, 0), (1, 0)))
    reps = select_antipodal_representatives(code)
    assert reps.points == ((1, 0),)


def test_representative_selection_rejects_unpaired():
    code = LatticeCode(2, 1, 2, ((1, 1), (-1, -1), (1, -1)))
    with pytest.raises(ValueError, match=r"point \(1, -1\) has no antipode"):
        select_antipodal_representatives(code)
    # of several unpaired points, the first in the code's order is named
    code = LatticeCode(2, 1, 5, ((2, 1), (-1, 2), (-2, -1), (1, 2)))
    with pytest.raises(ValueError, match=r"^point \(-1, 2\) has no antipode in the code$"):
        select_antipodal_representatives(code)


def _pair_witness(code):
    """The spectrum by a double loop over scaled dot products: the packed count's witness."""
    counts = Counter()
    pts = code.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            counts[scaled_dot(pts[i], pts[j])] += 1
    return {Fraction(s, code.norm_sq_scaled): 2 * c for s, c in sorted(counts.items())}


def _dot_rows(code):
    """Every dot product dot_fields packs, decoded: its rows in list form."""
    dot, rows = dot_fields(code)
    return [[dot(key) for key in row] for row in rows]


def _dot_witness(code):
    """The dot products by a double loop: the packed rows' witness."""
    pts = code.points
    return [[scaled_dot(p, q) for q in pts] for p in pts]


def test_spectrum_of_roots(e8_roots):
    spec = spectrum(e8_roots)
    assert spec == {
        Fraction(-1): 240,
        Fraction(-1, 2): 13440,
        Fraction(0): 30240,
        Fraction(1, 2): 13440,
    }
    assert sum(spec.values()) == 240 * 239


def test_spectrum_of_representatives(e8_roots):
    reps = select_antipodal_representatives(e8_roots)
    spec = spectrum(reps)
    assert set(spec) <= {Fraction(0), Fraction(1, 2), Fraction(-1, 2)}
    assert sum(spec.values()) == 120 * 119
    assert spec == _pair_witness(reps)


def test_spectrum_single_antipodal_pair():
    code = LatticeCode(2, 1, 1, ((-1, 0), (1, 0)))
    assert spectrum(code) == {Fraction(-1): 2}


def _vector_of_norm(n):
    """A vector of squared norm n: a 1, then the largest square that fits, then the rest.

    The 1 keeps the coordinates' gcd at 1, so the packer cannot divide the
    field down from the width n needs.
    """
    v, n = [1], n - 1
    while n:
        v.append(isqrt(n))
        n -= v[-1] ** 2
    return tuple(v)


def _signed_permutations(base, count, rng):
    """Up to count distinct signed permutations of base, in drawn order."""
    return tuple(dict.fromkeys(
        tuple(rng.choice((-1, 1)) * c for c in rng.sample(base, len(base))) for _ in range(count)
    ))


# A w-byte field holds n < 2^(8w - 1): each side of that bound, and 2^(8w) - 1,
# which has w bytes but needs a field of w + 1
WIDTH_BOUNDARIES = [n for w in (1, 2, 3, 8, 9) for n in (2 ** (8 * w - 1) - 1, 2 ** (8 * w - 1), 2 ** (8 * w) - 1)]


@st.composite
def equinorm_codes(draw):
    """Signed permutations of one integer vector: not antipodal in general."""
    base = draw(
        st.one_of(
            st.lists(st.integers(-12, 12), min_size=1, max_size=6),
            st.sampled_from(WIDTH_BOUNDARIES).map(_vector_of_norm),
        ).filter(any)
    )
    points = _signed_permutations(base, draw(st.integers(1, 40)), draw(st.randoms(use_true_random=False)))
    return LatticeCode(len(base), 1, sum(c * c for c in base), points)


def _cross_polytope(m, scale):
    return tuple(tuple(s * scale * (k == i) for k in range(m)) for i in range(m) for s in (-1, 1))


def _antipodal_pair(norm):
    v = _vector_of_norm(norm)
    return LatticeCode(len(v), 1, norm, (v, tuple(-c for c in v)))


@settings(max_examples=200, deadline=None)
@given(equinorm_codes())
# one column all zero, so its packed column is 0: points in the xy-plane of Z^3
@example(LatticeCode(3, 1, 5, ((1, 2, 0), (2, -1, 0), (-2, 1, 0), (-1, -2, 0), (2, 1, 0))))
# one point; the line, where the gcd divides both points down to +-1
@example(LatticeCode(2, 1, 13, ((3, -2),)))
@example(LatticeCode(1, 1, 9, ((-3,), (3,))))
@example(LatticeCode(1, 1, 4, ((2,),)))
# dots only +-n and 0: the Cauchy-Schwarz ends, bare and scaled
@example(LatticeCode(4, 1, 1, _cross_polytope(4, 1)))
@example(LatticeCode(3, 7, 49, _cross_polytope(3, 7)))
# +-n with n = half - 1 fills the field from digit 1 to digit 2 half - 1
@example(_antipodal_pair(127))
@example(_antipodal_pair(2**15 - 1))
# the one-byte tally: all 48 signed permutations of (1, 2, 3) hold 23 distinct
# keys; two points of norm 127 at dot 126 and their antipodes hold the keys
# 0x01 and 0xfe, the ends a one-byte spectrum key reaches (|dot| < n < 128 for
# distinct points: 0x00 never occurs, 0xff only on the diagonal the tally skips)
@example(_every_signed_permutation((1, 2, 3)))
@example(LatticeCode(5, 1, 127, ((5, 4, 9, 2, 1), (4, 5, 9, 2, 1), (-5, -4, -9, -2, -1), (-4, -5, -9, -2, -1))))
def test_spectrum_matches_pair_witness(code):
    assert spectrum(code) == _pair_witness(code)
    assert _dot_rows(code) == _dot_witness(code)


@pytest.mark.parametrize("norm", WIDTH_BOUNDARIES)
def test_spectrum_at_field_width_boundaries(norm):
    base = _vector_of_norm(norm)
    code = LatticeCode(len(base), 1, norm, _signed_permutations(base, 100, random.Random(norm)))
    # only n < 128 packs in one-byte fields, read as bytes
    assert isinstance(next(dot_fields(code)[1]), bytes) is (norm < 128)
    assert spectrum(code) == _pair_witness(code)
    assert _dot_rows(code) == _dot_witness(code)


def test_spectrum_small_codes():
    # one point has no pair; on the line the two points are antipodal
    assert spectrum(LatticeCode(3, 1, 4, ((0, 2, 0),))) == {}
    assert spectrum(LatticeCode(1, 1, 9, ((3,),))) == {}
    assert spectrum(LatticeCode(1, 1, 9, ((-3,), (3,)))) == {Fraction(-1): 2}
    with pytest.raises(ValueError, match="empty code has no spectrum"):
        spectrum(LatticeCode(2, 1, 1, ()))


def test_normalized_inner(e8_roots):
    i = e8_roots.points.index((2, 2, 0, 0, 0, 0, 0, 0))
    j = e8_roots.points.index((2, 0, 2, 0, 0, 0, 0, 0))
    assert e8_roots.normalized_inner(i, j) == Fraction(1, 2)
    assert e8_roots.normalized_inner(i, i) == 1


def test_code_validation():
    with pytest.raises(ValueError, match="duplicate point"):
        LatticeCode(2, 1, 1, ((1, 0), (1, 0)))  # duplicate
    with pytest.raises(ValueError, match="not of the declared norm"):
        LatticeCode(2, 1, 1, ((1, 0), (1, 1)))  # not equinorm
    with pytest.raises(ValueError, match="has wrong dimension"):
        LatticeCode(2, 1, 1, ((1, 0, 0),))  # wrong dimension


A, B_WRONG_DIM, C_WRONG_NORM = (1, 0), (1, 0, 0), (1, 1)


@pytest.mark.parametrize(
    "points, message",
    [
        # the first faulty point in order is named, whichever whole-code pass fails first
        ((A, A, B_WRONG_DIM), "duplicate point (1, 0)"),
        ((B_WRONG_DIM, A, A), "point (1, 0, 0) has wrong dimension"),
        ((C_WRONG_NORM, A, A), "point (1, 1) is not of the declared norm"),
        ((A, A, C_WRONG_NORM), "duplicate point (1, 0)"),
        ((A, C_WRONG_NORM, B_WRONG_DIM), "point (1, 1) is not of the declared norm"),
        ((A, (-1, 0), (0, 1), B_WRONG_DIM, C_WRONG_NORM), "point (1, 0, 0) has wrong dimension"),
        # wrong-dimension points of the declared norm, one short and one long
        (((1,),), "point (1,) has wrong dimension"),
        ((A, (0, 0, 1)), "point (0, 0, 1) has wrong dimension"),
    ],
)
def test_code_validation_names_the_first_fault(points, message):
    with pytest.raises(ValueError) as caught:
        LatticeCode(2, 1, 1, points)
    assert str(caught.value) == message


def test_file_round_trip_is_bit_exact(e8_roots, tmp_path):
    path = tmp_path / "e8.code"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(code_to_text(e8_roots))
    with open(path, "r", encoding="utf-8") as f:
        back = code_from_text(f.read())
    assert back == e8_roots
    assert code_to_text(back) == code_to_text(e8_roots)
    assert code_to_text(back) == path.read_text(encoding="utf-8")


def test_file_header(e8_roots):
    text = code_to_text(e8_roots)
    assert text.splitlines()[0] == "8 240 2 8"
    assert len(text.splitlines()) == 241


def test_bad_files_rejected():
    with pytest.raises(ValueError, match="empty code file"):
        code_from_text("")
    with pytest.raises(ValueError, match="header must be"):
        code_from_text("2 1 1\n1 0\n")  # short header
    with pytest.raises(ValueError, match="expected 2 points, found 1"):
        code_from_text("2 2 1 1\n1 0\n")  # missing point
    with pytest.raises(ValueError, match="non-integer coordinate"):
        code_from_text("2 1 1 1\n1 x\n")  # non-integer
    with pytest.raises(ValueError, match="non-integer coordinate"):
        code_from_text("2 2 1 1\n1 0\n0 1.0\n")  # first seen in a later row
    # int() reads each of these as 1; a code file holds only ASCII -?[0-9]+
    for token in ("0_1", "+1", "\u0661"):
        with pytest.raises(ValueError, match="non-integer coordinate"):
            code_from_text(f"2 2 1 1\n1 0\n0 {token}\n")
        with pytest.raises(ValueError, match="bad header"):
            code_from_text(f"2 1 1 {token}\n1 0\n")
    for token in ("-", "--1", "1-"):
        with pytest.raises(ValueError, match="non-integer coordinate"):
            code_from_text(f"2 1 1 1\n1 {token}\n")
    with pytest.raises(ValueError, match=r"point \(1, 1\) is not of the declared norm"):
        code_from_text("2 1 1 1\n1 1\n")  # wrong norm
    with pytest.raises(ValueError, match="point count -1 is negative"):
        code_from_text("2 -1 1 1\n")


def test_blank_lines_are_skipped():
    # lines of whitespace alone, Unicode whitespace included, are no points
    code = LatticeCode(2, 1, 1, ((1, 0), (0, -1)))
    assert code_from_text("2 2 1 1\n\n \t\n1 0\n\u3000\n 0\t-1 \n\n") == code
    with pytest.raises(ValueError, match="expected 2 points, found 1"):
        code_from_text("2 2 1 1\n1 0\n \n\x0c\n")


def test_read_from_stream(e8_roots):
    back = code_from_text(io.StringIO(code_to_text(e8_roots)).read())
    assert back == e8_roots
