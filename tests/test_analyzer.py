import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_codes.analyzer import (
    candidate_from_scan,
    candidate_parameters,
    candidate_to_dict,
    candidate_to_json,
    constant_modulus_scan,
    read_spectrum_file,
    scan_to_dict,
    scan_to_json,
)
from harmonic_codes.exact import DomainError, StructureError
from harmonic_codes.harmonics import gegenbauer, harmonic_dimension

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
    with pytest.raises(DomainError, match="degree must be >= 0"):
        constant_modulus_scan([0], 7, [-1, 3])
    with pytest.raises(DomainError, match="degree must be >= 0"):
        constant_modulus_scan([0], 7, [3, -1])
    assert constant_modulus_scan([0], 7, []) == []
    assert constant_modulus_scan([0], 0, []) == []


def test_scan_accepts_a_one_shot_iterator():
    results = constant_modulus_scan([0, HALF, -HALF], 7, iter([2, 1, 2]))
    assert [r.k for r in results] == [2, 1, 2]
    assert results[0] == results[2]


_spectra = st.lists(
    st.fractions(min_value=-1, max_value=1, max_denominator=12).filter(lambda v: abs(v) < 1),
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


def test_scan_rejects_out_of_range_value():
    with pytest.raises(DomainError):
        constant_modulus_scan([Fraction(3, 2)], 7, [2])


def test_scan_rejects_antipodal_value():
    with pytest.raises(DomainError):
        constant_modulus_scan([0, 1], 7, [2])
    with pytest.raises(DomainError):
        constant_modulus_scan([-1], 7, [2])


def test_scan_rejects_empty_values():
    with pytest.raises(DomainError):
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
    assert summary.harmonic_dim == 35
    assert summary.n_points == 240
    assert summary.coherence == Fraction(1, 7)
    assert summary.bound.value == Fraction(1, 7)
    assert summary.constant_modulus


def test_candidate_wider_spectrum():
    summary = candidate_parameters([0, QUARTER, -QUARTER, HALF, -HALF], 23, 2, 196560)
    assert summary.harmonic_dim == 299
    assert summary.coherence == Fraction(5, 23)
    assert not summary.constant_modulus
    assert summary.bound.radicand == Fraction(7537, 2260417)
    assert not summary.bound.exact
    assert summary.bound.value is None


def test_candidate_orthogonal_spectrum():
    summary = candidate_parameters([0], 7, 2, 70)
    assert summary.harmonic_dim == 35
    assert summary.coherence == Fraction(1, 7)
    assert summary.bound.value == 0
    assert summary.constant_modulus


def test_candidate_rejects_odd_n_points():
    with pytest.raises(StructureError):
        candidate_parameters([0, HALF, -HALF], 7, 2, 239)


def test_read_spectrum_file():
    f = io.StringIO("0\n1/2\n\n-1/2\n")
    assert read_spectrum_file(f) == [0, HALF, -HALF]


def test_read_spectrum_file_bad_token():
    with pytest.raises(DomainError):
        read_spectrum_file(io.StringIO("0\nbogus\n"))
    with pytest.raises(DomainError):
        read_spectrum_file(io.StringIO("1/0\n"))


def test_scan_serialization():
    (result,) = constant_modulus_scan([0, HALF, -HALF], 7, [2])
    d = scan_to_dict(result)
    assert list(d) == ["d", "k", "harmonic_dim", "image", "constant_modulus", "modulus"]
    assert d["image"] == {"-1/2": "1/7", "0": "-1/7", "1/2": "1/7"}
    assert d["modulus"] == "1/7"
    line = scan_to_json(result)
    assert line.endswith("\n")
    assert json.loads(line) == d


def test_scan_serialization_no_modulus():
    (result,) = constant_modulus_scan([0, QUARTER, -QUARTER, HALF, -HALF], 23, [2])
    assert scan_to_dict(result)["modulus"] is None


def test_candidate_serialization():
    summary = candidate_parameters([0, HALF, -HALF], 7, 2, 240)
    d = candidate_to_dict(summary)
    assert d == {
        "ambient_dim": 35,
        "n_points": 240,
        "coherence": "1/7",
        "bound": "1/7",
        "constant_modulus": True,
    }
    assert json.loads(candidate_to_json(summary)) == d


def test_candidate_serialization_irrational_bound():
    summary = candidate_parameters([0, QUARTER, -QUARTER, HALF, -HALF], 23, 2, 196560)
    assert candidate_to_dict(summary)["bound"] == "sqrt(7537/2260417)"
