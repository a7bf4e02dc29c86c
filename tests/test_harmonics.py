import random
from fractions import Fraction

import pytest

from harmonic_codes.exact import DomainError
from harmonic_codes.harmonics import (
    GegenbauerPoly,
    gegenbauer,
    gegenbauer_family,
    harmonic_dimension,
)


def _rising(x, m):
    out = Fraction(1)
    for i in range(m):
        out *= x + i
    return out


def _factorial(m):
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


def _series_gegenbauer(d, k):
    """Independent oracle: the explicit hypergeometric series for C_k^lam,
    normalized at t = 1.  Completely separate from the recurrence."""
    lam = Fraction(d - 1, 2)
    coeffs = [Fraction(0)] * (k + 1)
    for i in range(k // 2 + 1):
        power = k - 2 * i
        c = (
            Fraction((-1) ** i)
            * _rising(lam, k - i)
            / (_factorial(i) * _factorial(power))
            * 2**power
        )
        coeffs[power] = c
    at_one = sum(coeffs)
    return [c / at_one for c in coeffs]


def test_dimension_paper_case():
    assert harmonic_dimension(7, 2) == 35


def test_dimension_linear_harmonics_are_coordinates():
    for d in range(1, 31):
        assert harmonic_dimension(d, 1) == d + 1


def test_dimension_leech_case():
    assert harmonic_dimension(23, 2) == 299


def test_dimension_degree_zero():
    assert harmonic_dimension(5, 0) == 1


def test_dimension_rejects_bad_input():
    with pytest.raises(DomainError):
        harmonic_dimension(0, 2)
    with pytest.raises(DomainError):
        harmonic_dimension(3, -1)


def test_degree2_sphere7_coefficients():
    p = gegenbauer(7, 2)
    assert p.coeffs == (Fraction(-1, 7), Fraction(0), Fraction(8, 7))


def test_degree1_is_identity_polynomial():
    for d in range(2, 31):
        assert gegenbauer(d, 1).coeffs == (Fraction(0), Fraction(1))


def test_degree3_sphere7_value():
    p = gegenbauer(7, 3)
    assert p.evaluate(Fraction(1, 2)) == Fraction(-1, 28)


def _explicit_chebyshev(k):
    """Independent oracle for the circle: the explicit sum
    T_k(t) = (k/2) sum_m (-1)^m (k-m-1)! / (m! (k-2m)!) (2t)^(k-2m), k >= 1."""
    if k == 0:
        return [Fraction(1)]
    coeffs = [Fraction(0)] * (k + 1)
    for m in range(k // 2 + 1):
        power = k - 2 * m
        coeffs[power] = (
            Fraction(k, 2)
            * (-1) ** m
            * Fraction(_factorial(k - m - 1), _factorial(m) * _factorial(power))
            * 2**power
        )
    return coeffs


def test_recurrence_matches_series_oracle():
    # every member of one family run equals the series and the degree-k build
    for d in range(2, 31):
        family = gegenbauer_family(d, 16)
        assert len(family) == 17
        for k, poly in enumerate(family):
            assert (poly.d, poly.k) == (d, k)
            assert list(poly.coeffs) == _series_gegenbauer(d, k), (d, k)
            assert poly == gegenbauer(d, k), (d, k)


def test_family_degree_range():
    for d in (1, 2, 7, 30):
        with pytest.raises(DomainError):
            gegenbauer_family(d, -1)
        (constant,) = gegenbauer_family(d, 0)
        assert constant == GegenbauerPoly(d=d, k=0, coeffs=(Fraction(1),))
        assert gegenbauer(d, 0) == constant
    with pytest.raises(DomainError):
        gegenbauer_family(0, 3)


def test_evaluate_paper_values():
    p = gegenbauer(7, 2)
    assert p.evaluate(Fraction(1, 2)) == Fraction(1, 7)
    assert p.evaluate(Fraction(-1, 2)) == Fraction(1, 7)
    assert p.evaluate(0) == Fraction(-1, 7)


def test_normalization_at_one():
    for d in range(2, 31, 4):
        for k in range(0, 13):
            assert gegenbauer(d, k).evaluate(1) == 1


def test_parity():
    rng = random.Random(3)
    for d in (2, 5, 7, 12, 30):
        for k in range(0, 13):
            p = gegenbauer(d, k)
            for _ in range(5):
                t = Fraction(rng.randint(-99, 99), 100)
                assert p.evaluate(-t) == (-1) ** k * p.evaluate(t)


def test_bounded_by_one_on_interval():
    rng = random.Random(5)
    for d in (2, 7, 15, 30):
        for k in range(0, 13):
            p = gegenbauer(d, k)
            for _ in range(10):
                t = Fraction(rng.randint(-100, 100), 100)
                assert abs(p.evaluate(t)) <= 1


def test_degree2_closed_form():
    for d in range(2, 31):
        expected = (Fraction(-1, d), Fraction(0), Fraction(d + 1, d))
        assert gegenbauer(d, 2).coeffs == expected


def test_circle_family_is_chebyshev():
    assert gegenbauer(1, 2).coeffs == (Fraction(-1), Fraction(0), Fraction(2))
    assert gegenbauer(1, 3).coeffs == (Fraction(0), Fraction(-3), Fraction(0), Fraction(4))
    family = gegenbauer_family(1, 16)
    assert len(family) == 17
    for k, poly in enumerate(family):
        assert list(poly.coeffs) == _explicit_chebyshev(k), k
        assert poly.evaluate(1) == 1
        assert poly == gegenbauer(1, k), k


def test_poly_validation():
    with pytest.raises(DomainError):
        GegenbauerPoly(d=7, k=2, coeffs=(Fraction(0), Fraction(0), Fraction(2)))
    with pytest.raises(DomainError):
        GegenbauerPoly(d=7, k=2, coeffs=(Fraction(-1, 7), Fraction(1, 7), Fraction(1)))
    with pytest.raises(DomainError):
        GegenbauerPoly(d=7, k=2, coeffs=(Fraction(1),))
