import io
import json
import random
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonic_codes.analyzer import (
    candidate_from_scan,
    candidate_parameters,
    candidate_to_json,
    constant_modulus_scan,
    read_spectrum_file,
    scan_to_json,
)
from harmonic_codes.codes import QuadraticBound, format_bound, quadratic_bound
from harmonic_codes.harmonics import gegenbauer, harmonic_dimension
from test_harmonics import gegenbauer_values

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def test_scan_equiangular_spectrum():
    (result,) = constant_modulus_scan([0, HALF, -HALF], 7, [2])
    assert result.harmonic_dim == 35
    assert result.constant_modulus
    assert result.modulus == Fraction(1, 7)
    assert result.image_values == {
        -HALF: Fraction(1, 7),
        Fraction(0): Fraction(-1, 7),
        HALF: Fraction(1, 7),
    }


def test_scan_wider_spectrum_not_equiangular():
    (result,) = constant_modulus_scan([0, QUARTER, -QUARTER, HALF, -HALF], 23, [2])
    assert result.harmonic_dim == 299
    assert not result.constant_modulus
    assert result.modulus is None
    assert set(result.image_values.values()) == {
        Fraction(-1, 23),
        Fraction(1, 46),
        Fraction(5, 23),
    }


def test_scan_degree_one_single_modulus():
    for d in (2, 7, 23):
        for c in (Fraction(1, 3), Fraction(2, 5)):
            (result,) = constant_modulus_scan([c, -c], d, [1])
            assert result.constant_modulus
            assert result.modulus == c


def test_scan_k_range_runs_each_degree():
    results = constant_modulus_scan([0, HALF, -HALF], 7, range(1, 5))
    assert [r.k for r in results] == [1, 2, 3, 4]
    assert [r.constant_modulus for r in results] == [False, True, False, False]


def test_scan_negative_degree_and_empty_range():
    # k = -1 must raise, never wrap to the last member of the family
    with pytest.raises(ValueError, match="degree must be >= 0"):
        constant_modulus_scan([0], 7, [-1, 3])
    with pytest.raises(ValueError, match="degree must be >= 0"):
        constant_modulus_scan([0], 7, [3, -1])
    assert constant_modulus_scan([0], 7, []) == []
    assert constant_modulus_scan([0], 0, []) == []


def test_scan_accepts_a_one_shot_iterator():
    results = constant_modulus_scan([0, HALF, -HALF], 7, iter([2, 1, 2]))
    assert [r.k for r in results] == [2, 1, 2]
    assert results[0] == results[2]


_admissible = st.fractions(min_value=-1, max_value=1, max_denominator=12).filter(
    lambda v: abs(v) < 1
)
_spectra = st.lists(
    _admissible,
    min_size=1,
    max_size=6,
    unique=True,
)


@settings(max_examples=80, deadline=None)
@given(
    values=_spectra,
    d=st.integers(1, 30),
    a=st.integers(1, 12),
    width=st.integers(0, 11),
    half_n=st.integers(2, 200),
)
def test_range_scan_and_candidates_match_per_degree_path(values, d, a, width, half_n):
    # witnesses: the one-degree scan, the degree-k polynomial and candidate_parameters
    b = min(a + width, 12)
    n_points = 2 * half_n
    results = constant_modulus_scan(values, d, range(a, b + 1))
    assert [r.k for r in results] == list(range(a, b + 1))
    for r in results:
        assert [r] == constant_modulus_scan(values, d, [r.k])
        poly = gegenbauer(d, r.k)
        assert r.image_values == {v: poly.evaluate(v) for v in values}
        assert r.harmonic_dim == harmonic_dimension(d, r.k)
        assert candidate_from_scan(r, n_points) == candidate_parameters(values, d, r.k, n_points)


class _Witness(NamedTuple):
    k: int
    harmonic_dim: int
    image_values: dict
    max_modulus: Fraction
    constant_modulus: bool
    bound: QuadraticBound
    scan_json: str
    candidate_json: str


def _scan_witness(values, d, k_range, n_points):
    """The reference scan and candidates, on Fractions throughout: Fraction(v),
    per-point gegenbauer_values, sets of Fractions, abs() and comparisons, and
    both JSON lines rendered here by json.dumps over str(Fraction).  The
    integer-row scan must equal it."""

    def _checked_values(values):
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

    vals = _checked_values(values)
    ks = list(k_range)
    if not ks:
        return []
    columns = {v: gegenbauer_values(d, v, ks) for v in vals}
    witnesses = []
    for i, k in enumerate(ks):
        image = {v: column[i] for v, column in columns.items()}
        moduli = {abs(g) for g in image.values()}
        top, constant = max(moduli), len(moduli) == 1
        dim = harmonic_dimension(d, k)
        bound = quadratic_bound(n_points, dim)
        scan_json = json.dumps({
            "d": d,
            "k": k,
            "harmonic_dim": dim,
            "image": {str(v): str(g) for v, g in image.items()},
            "constant_modulus": constant,
            "modulus": str(top) if constant else None,
        }) + "\n"
        candidate_json = json.dumps({
            "ambient_dim": dim,
            "n_points": n_points,
            "coherence": str(top),
            "bound": format_bound(bound),
            "constant_modulus": constant,
        }) + "\n"
        witnesses.append(
            _Witness(k, dim, image, top, constant, bound, scan_json, candidate_json)
        )
    return witnesses


def _assert_scan_matches(results, expected):
    # values, key order, moduli and bytes against the witness, record by record
    assert [r.k for r in results] == [w.k for w in expected]
    for r, w in zip(results, expected):
        assert r.harmonic_dim == w.harmonic_dim
        assert r.image_values == w.image_values
        assert list(r.image_values) == list(w.image_values)
        assert all(type(v) is Fraction for v in r.image_values)
        assert all(type(g) is Fraction for g in r.image_values.values())
        assert r.max_modulus == w.max_modulus
        assert type(r.max_modulus) is Fraction
        assert r.constant_modulus is w.constant_modulus
        assert type(r.modulus) is (Fraction if w.constant_modulus else type(None))
        assert scan_to_json(r) == w.scan_json


def _as_drawn(v, scale, as_int):
    # an equal value in another form: the int, or a Fraction built unreduced
    if as_int and v.denominator == 1:
        return int(v)
    return Fraction(v.numerator * scale, v.denominator * scale)


def _values(value, min_size=0):
    drawn = st.builds(_as_drawn, value, st.integers(1, 3), st.booleans())
    return st.lists(drawn, min_size=min_size, max_size=8)


@settings(max_examples=100, deadline=None)
@given(
    values=_values(_admissible, min_size=1),
    d=st.integers(1, 34),
    ks=st.lists(st.integers(0, 12), max_size=6),
    half_n=st.integers(2, 300),
)
@example(values=[HALF, 0, -HALF], d=1, ks=[12, 2, 1, 2], half_n=2)
@example(values=[Fraction(-1, 7), Fraction(1, 7), Fraction(2, 14)], d=34, ks=[12, 0], half_n=120)
# the image tokens' branches: an integer image (T_2(0) = -1), a zero image
# (P_1(0) = 0), a negative numerator sharing a factor with the denominator
# (-4/28 at t = 0 over the lcm 2), and a spectrum over the lcm 12
@example(values=[0], d=1, ks=[2], half_n=2)
@example(values=[0], d=7, ks=[1], half_n=2)
@example(values=[-HALF, 0, HALF], d=7, ks=[2], half_n=120)
@example(values=[Fraction(1, 3), Fraction(-1, 4)], d=4, ks=[3, 1], half_n=5)
# a modulus of 0 at every odd degree, and multi-digit negative keys next to
# multi-digit image tokens
@example(values=[0], d=3, ks=[3, 1, 5], half_n=2)
@example(values=[Fraction(-11, 12), Fraction(-10, 11), Fraction(1, 12)], d=9, ks=[2, 7], half_n=60)
def test_scan_and_candidates_match_witness(values, d, ks, half_n):
    # repeated, unsorted, int next to Fraction: the same results, key order and bytes
    values = values + [0, Fraction(0)][: len(values) % 3]
    values += [HALF, Fraction(2, 4)][: len(values) % 2]
    expected = _scan_witness(values, d, ks, 2 * half_n)
    results = constant_modulus_scan(values, d, ks)
    _assert_scan_matches(results, expected)
    for r, w in zip(results, expected):
        summary = candidate_from_scan(r, 2 * half_n)
        assert summary.scan == r
        assert summary.n_points == 2 * half_n
        assert summary.bound == w.bound
        assert summary.scan.max_modulus == w.max_modulus
        assert type(summary.scan.max_modulus) is Fraction
        assert candidate_to_json(summary) == w.candidate_json


@settings(max_examples=100, deadline=None)
@given(
    values=_values(st.fractions(min_value=-2, max_value=2, max_denominator=4)),
    d=st.integers(0, 34),
    ks=st.lists(st.integers(-1, 12), max_size=4),
)
def test_scan_errors_match_witness(values, d, ks):
    # the first bad value in input order, then the sphere, then the degree
    try:
        expected = _scan_witness(values, d, ks, 4)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            constant_modulus_scan(values, d, ks)
        assert str(raised.value) == str(exc)
    else:
        _assert_scan_matches(constant_modulus_scan(values, d, ks), expected)


def test_quadratic_bound_matches_quotient_form():
    # the bound's num/den as one Fraction against (n/dim - 2)/(n - 2) clamped at 0
    for n in range(4, 601, 2):
        for dim in range(1, 701):
            old = max(Fraction(0), (Fraction(n, dim) - 2) / (n - 2))
            bound = quadratic_bound(n, dim)
            assert Fraction(bound.num, bound.den) == old


def test_scan_rejects_out_of_range_value():
    # the first bad value in input order names the error
    with pytest.raises(ValueError, match=r"value 3/2 outside \[-1, 1\]"):
        constant_modulus_scan([Fraction(3, 2)], 7, [2])
    with pytest.raises(ValueError, match=r"value 3/2 outside \[-1, 1\]"):
        constant_modulus_scan([Fraction(3, 2), 1], 7, [2])
    with pytest.raises(ValueError, match=r"value -2 outside \[-1, 1\]"):
        constant_modulus_scan([HALF, -2, Fraction(5, 4)], 7, [2])


def test_scan_rejects_antipodal_value():
    with pytest.raises(ValueError, match=r"values \+-1 are self or antipodal"):
        constant_modulus_scan([0, 1], 7, [2])
    with pytest.raises(ValueError, match=r"values \+-1 are self or antipodal"):
        constant_modulus_scan([-1], 7, [2])
    with pytest.raises(ValueError, match=r"values \+-1 are self or antipodal"):
        constant_modulus_scan([1, Fraction(3, 2)], 7, [2])


def test_scan_rejects_empty_values():
    with pytest.raises(ValueError, match="empty value set"):
        constant_modulus_scan([], 7, [2])


def test_scan_matches_polynomial_evaluation():
    rng = random.Random(53)
    for _ in range(40):
        d = rng.randint(2, 8)
        k = rng.randint(1, 6)
        values = {Fraction(rng.randint(-8, 8), 9) for _ in range(4)}
        (result,) = constant_modulus_scan(values, d, [k])
        poly = gegenbauer(d, k)
        for v, image in result.image_values.items():
            assert image == poly.evaluate(v)


def test_scan_parity_for_odd_degrees():
    # odd k: the image modulus of -t equals that of t
    rng = random.Random(59)
    for _ in range(25):
        d = rng.randint(2, 8)
        k = rng.choice([1, 3, 5])
        base = {Fraction(rng.randint(1, 8), 9) for _ in range(3)}
        symmetric = base | {-v for v in base}
        (one,) = constant_modulus_scan(base, d, [k])
        (two,) = constant_modulus_scan(symmetric, d, [k])
        assert one.constant_modulus == two.constant_modulus
        assert {abs(g) for g in one.image_values.values()} == {
            abs(g) for g in two.image_values.values()
        }


def test_candidate_equiangular_instance():
    summary = candidate_parameters([0, HALF, -HALF], 7, 2, 240)
    assert summary.scan.harmonic_dim == 35
    assert summary.n_points == 240
    assert summary.scan.max_modulus == Fraction(1, 7)
    assert summary.bound.value == Fraction(1, 7)
    assert summary.scan.constant_modulus


def test_candidate_wider_spectrum():
    summary = candidate_parameters([0, QUARTER, -QUARTER, HALF, -HALF], 23, 2, 196560)
    assert summary.scan.harmonic_dim == 299
    assert summary.scan.max_modulus == Fraction(5, 23)
    assert not summary.scan.constant_modulus
    assert Fraction(summary.bound.num, summary.bound.den) == Fraction(7537, 2260417)
    assert summary.bound.value is None


def test_candidate_orthogonal_spectrum():
    summary = candidate_parameters([0], 7, 2, 70)
    assert summary.scan.harmonic_dim == 35
    assert summary.scan.max_modulus == Fraction(1, 7)
    assert summary.bound.value == 0
    assert summary.scan.constant_modulus


def test_candidate_rejects_odd_n_points():
    with pytest.raises(ValueError, match="even number of points"):
        candidate_parameters([0, HALF, -HALF], 7, 2, 239)


def test_read_spectrum_file():
    f = io.StringIO("0\n1/2\n\n-1/2\n")
    assert read_spectrum_file(f) == [0, HALF, -HALF]


def test_read_spectrum_file_bad_token():
    with pytest.raises(ValueError, match="bad rational token 'bogus'"):
        read_spectrum_file(io.StringIO("0\nbogus\n"))
    with pytest.raises(ValueError, match="bad rational token '1/0'"):
        read_spectrum_file(io.StringIO("1/0\n"))


def test_scan_serialization():
    (result,) = constant_modulus_scan([0, HALF, -HALF], 7, [2])
    line = scan_to_json(result)
    assert line.endswith("\n")
    d = json.loads(line)
    assert list(d) == ["d", "k", "harmonic_dim", "image", "constant_modulus", "modulus"]
    assert d["image"] == {"-1/2": "1/7", "0": "-1/7", "1/2": "1/7"}
    assert d["modulus"] == "1/7"


def test_scan_serialization_no_modulus():
    (result,) = constant_modulus_scan([0, QUARTER, -QUARTER, HALF, -HALF], 23, [2])
    assert json.loads(scan_to_json(result))["modulus"] is None


@settings(max_examples=60, deadline=None)
@given(values=_values(_admissible, min_size=1), d=st.integers(1, 30), k=st.integers(0, 12))
@example(
    values=[HALF, Fraction(-1, 3), 0, Fraction(2, 4), Fraction(-3, 4), Fraction(1, 12), Fraction(-1, 3)],
    d=7,
    k=2,
)
def test_scan_json_image_keys_ascend(values, d, k):
    # unsorted input with duplicates: the image is written in ascending numeric order
    values = values[::-1] + values[:2]
    (result,) = constant_modulus_scan(values, d, [k])
    keys = list(json.loads(scan_to_json(result))["image"])
    assert [Fraction(key) for key in keys] == sorted(set(map(Fraction, values)))


def test_candidate_serialization():
    summary = candidate_parameters([0, HALF, -HALF], 7, 2, 240)
    line = candidate_to_json(summary)
    assert line.endswith("\n")
    assert json.loads(line) == {
        "ambient_dim": 35,
        "n_points": 240,
        "coherence": "1/7",
        "bound": "1/7",
        "constant_modulus": True,
    }


def test_candidate_serialization_irrational_bound():
    summary = candidate_parameters([0, QUARTER, -QUARTER, HALF, -HALF], 23, 2, 196560)
    assert json.loads(candidate_to_json(summary))["bound"] == "sqrt(7537/2260417)"
