import fractions
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonic_codes import harmonics
from harmonic_codes.harmonics import (
    GegenbauerPoly,
    gegenbauer,
    gegenbauer_rows,
    harmonic_dimension,
)


def gegenbauer_family(d, k_max):
    """Normalized Gegenbauer polynomials P_0, ..., P_k_max for S^d, each checked."""
    harmonic_dimension(d, k_max)  # raises as gegenbauer does, the sphere first
    return tuple(gegenbauer(d, j) for j in range(k_max + 1))


def gegenbauer_values(d, t, degrees):
    """P_k(t) for S^d at each k in degrees, as Fractions: gegenbauer_rows at the one point t = p/q."""
    p, q = t.as_integer_ratio()
    return [Fraction(row[0], den) for row, den in gegenbauer_rows(d, [p], q, degrees)]


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
    # branching rule: restricted to S^{d-1}, H_k(S^d) splits into H_j for j <= k
    for d in range(2, 31):
        for k in range(13):
            assert harmonic_dimension(d, k) == sum(
                harmonic_dimension(d - 1, j) for j in range(k + 1)
            )


def test_dimension_leech_case():
    assert harmonic_dimension(23, 2) == 299


def test_dimension_degree_zero():
    assert harmonic_dimension(5, 0) == 1


def test_dimension_rejects_bad_input():
    with pytest.raises(ValueError, match="sphere dimension must be >= 1"):
        harmonic_dimension(0, 2)
    with pytest.raises(ValueError, match="degree must be >= 0"):
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
    # every member of one family run equals the series and the degree-k build,
    # up to k = 16 for d = 2..30 and to k = 60, where the integers are long, on S^7
    for d, k_max in [*((d, 16) for d in range(2, 31)), (7, 60)]:
        family = gegenbauer_family(d, k_max)
        assert len(family) == k_max + 1
        for k, poly in enumerate(family):
            assert len(poly.coeffs) - 1 == k
            assert list(poly.coeffs) == _series_gegenbauer(d, k), (d, k)
            assert poly.coeffs == gegenbauer(d, k).coeffs, (d, k)


def test_family_degree_range():
    for d in (1, 2, 7, 30):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            gegenbauer_family(d, -1)
        (constant,) = gegenbauer_family(d, 0)
        assert constant.coeffs == (Fraction(1),)
        assert gegenbauer(d, 0).coeffs == constant.coeffs
    # P_0 = 1 and P_1 = t for every d; polynomials compare by identity
    assert gegenbauer(1, 1).coeffs == gegenbauer(5, 1).coeffs
    assert gegenbauer(3, 0).coeffs == gegenbauer(9, 0).coeffs
    assert gegenbauer(7, 2).coeffs != gegenbauer(8, 2).coeffs
    assert gegenbauer(1, 1) != gegenbauer(1, 1)
    with pytest.raises(ValueError, match="sphere dimension must be >= 1"):
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
        assert poly.coeffs == gegenbauer(1, k).coeffs, k


def test_poly_validation():
    with pytest.raises(ValueError, match="not normalized at t = 1"):
        GegenbauerPoly([0, 0, 2], 1)
    with pytest.raises(ValueError, match="wrong parity"):
        GegenbauerPoly([-1, 1, 7], 7)
    with pytest.raises(ValueError, match="not normalized at t = 1"):
        GegenbauerPoly([], 1)
    for d in (1, 7, 34):
        for poly in gegenbauer_family(d, 12):
            row, den = list(poly.row), poly.den
            GegenbauerPoly(row, den)  # the family's own rows pass both checks
            # any one coefficient of the wrong parity for the degree
            for j in range(len(row) - 2, -1, -2):
                bad = row.copy()
                bad[j] = 1
                with pytest.raises(ValueError, match="wrong parity"):
                    GegenbauerPoly(bad, den)
            # the value at t = 1 is off by one
            with pytest.raises(ValueError, match="not normalized at t = 1"):
                GegenbauerPoly(row[:-1] + [row[-1] + den], den)


def _horner(coeffs, t):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


@st.composite
def points(draw):
    """t = p/q with q <= 50: any p in [-q, q], or 0 or +-(q-1)/q next to the ends."""
    q = draw(st.integers(1, 50))
    p = draw(st.one_of(st.sampled_from([0, q - 1, 1 - q]), st.integers(-q, q)))
    return Fraction(p, q)


def test_gegenbauer_builds_and_checks_only_its_degree(monkeypatch):
    # the family checks every member; a single degree checks only itself
    checked = []
    check = GegenbauerPoly.__init__

    def counted(self, row, den):
        checked.append(len(row) - 1)
        check(self, row, den)

    monkeypatch.setattr(GegenbauerPoly, "__init__", counted)
    for d in (1, 7, 34):
        for k in (0, 1, 2, 12):
            family = gegenbauer_family(d, k)
            assert checked == list(range(k + 1))
            checked.clear()
            assert gegenbauer(d, k).coeffs == family[-1].coeffs
            assert checked == [k]
            checked.clear()


def test_gegenbauer_runs_its_recurrence_on_integers(monkeypatch):
    # no Fraction arithmetic: the polynomial keeps its integer row, and its
    # Fraction coefficients are built only when coeffs is read
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        def counted(*args, _name=name, _op=getattr(fractions.Fraction, name)):
            calls.append(_name)
            return _op(*args)

        monkeypatch.setattr(fractions.Fraction, name, counted)
    assert Fraction(1, 2) * 2 / 3 == Fraction(1, 3) and calls == ["__mul__", "__truediv__"]
    calls.clear()
    poly = gegenbauer(7, 40)
    assert calls == []
    assert list(poly.coeffs) == _series_gegenbauer(7, 40)


def test_gegenbauer_keeps_only_the_last_rows():
    # unreduced rows grow as D_k: keeping every member up to k peaked at ~190x
    # the last row's size for k = 600, keeping two peaks at ~3x
    d, k = 7, 600
    poly = gegenbauer(d, k)
    assert poly.den == math.prod(range(d, k + d - 1))  # D_k = d (d+1) ... (k+d-2)
    row_bytes = sys.getsizeof(poly.row) + sum(map(sys.getsizeof, poly.row))
    tracemalloc.start()
    try:
        again = gegenbauer(d, k)
        assert (again.row, again.den) == (poly.row, poly.den)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * row_bytes, (peak, row_bytes)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 30), k_max=st.integers(0, 16), t=points(), data=st.data())
def test_point_values_match_family_and_series(d, k_max, t, data):
    # the integer point recurrence against the family's Horner values and the
    # explicit series (Chebyshev's on the circle, where the series degenerates)
    values = gegenbauer_values(d, t, range(k_max + 1))
    family = gegenbauer_family(d, k_max)
    assert len(values) == k_max + 1
    for k, value in enumerate(values):
        oracle = _explicit_chebyshev(k) if d == 1 else _series_gegenbauer(d, k)
        assert value == family[k].evaluate(t) == _horner(oracle, t), (d, k, t)
    # any degrees, in any order and repeated, read the same run
    degrees = data.draw(st.lists(st.integers(0, k_max), max_size=6))
    assert gegenbauer_values(d, t, degrees) == [values[k] for k in degrees]


def test_point_values_errors_and_paper_values():
    assert gegenbauer_values(7, Fraction(1, 2), [2, 3]) == [Fraction(1, 7), Fraction(-1, 28)]
    assert gegenbauer_values(7, 0, iter([2])) == [Fraction(-1, 7)]
    assert gegenbauer_values(34, Fraction(1, 7), [12]) == [Fraction(-2231275, 638676537989)]
    assert gegenbauer_values(1, Fraction(1, 2), range(7)) == [
        1, Fraction(1, 2), Fraction(-1, 2), -1, Fraction(-1, 2), Fraction(1, 2), 1
    ]
    assert gegenbauer_values(5, Fraction(1, 3), []) == []
    # as in gegenbauer_family: the sphere first, then the degrees
    with pytest.raises(ValueError, match="sphere dimension must be >= 1"):
        gegenbauer_values(0, 0, [-1])
    with pytest.raises(ValueError, match="sphere dimension must be >= 1"):
        gegenbauer_values(0, 0, [])
    with pytest.raises(ValueError, match="degree must be >= 0"):
        gegenbauer_values(1, 0, [3, -1])


@settings(max_examples=300, deadline=None)
@given(a=st.integers(-(10**40), 10**40), den=st.integers(1, 10**40), m=st.integers(-(10**6), 10**6))
@example(a=0, den=1, m=0)
@example(a=-6, den=4, m=-1)
@example(a=1234567, den=89, m=37)
def test_token_writes_what_str_of_a_fraction_writes(a, den, m):
    # any numerator over any den >= 1, and multiples of den, which are integers
    assert harmonics._token(a, den) == str(Fraction(a, den))
    assert harmonics._token(m * den, den) == str(Fraction(m * den, den)) == str(m)
    assert harmonics._token(0, den) == "0"


@st.composite
def over_one_denominator(draw):
    """(nums, den): up to 6 points nums[i]/den in [-1, 1], unreduced and maybe repeated."""
    den = draw(st.integers(1, 60))
    return draw(st.lists(st.integers(-den, den), max_size=6)), den


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(0, 30),
    points=over_one_denominator(),
    degrees=st.lists(st.integers(-1, 14), max_size=6),
)
@example(d=7, points=([0, 1, -1], 1), degrees=[0, 1, 2, 3, 12])  # t = 0 and t = +-1 over den = 1
@example(d=1, points=([0, 2, -2, 1, 1], 2), degrees=[12, 2, 0])  # the circle, a repeated point
@example(d=23, points=([156, 143, 132], 1716), degrees=[1, 2, 12])  # 1/11, 1/12, 1/13 over their lcm
@example(d=3, points=([], 5), degrees=[0, 4])  # no points: one empty row per degree
@example(d=0, points=([], 1), degrees=[-1])  # no points still raises: the sphere first,
@example(d=3, points=([], 1), degrees=[2, -1])  # then the degrees
def test_many_point_rows_match_each_point(d, points, degrees):
    # one run over a shared denominator against one run per point and the checked polynomial
    nums, den = points
    if d < 1 or min(degrees, default=0) < 0:
        error = "sphere dimension must be >= 1" if d < 1 else "degree must be >= 0"
        with pytest.raises(ValueError, match=error):
            gegenbauer_rows(d, nums, den, degrees)
        with pytest.raises(ValueError, match=error):
            gegenbauer_values(d, 0, degrees)
        return
    ts = [Fraction(a, den) for a in nums]
    rows = gegenbauer_rows(d, iter(nums), den, iter(degrees))
    assert len(rows) == len(degrees)
    for k, (row, den_k) in zip(degrees, rows):
        assert len(row) == len(nums) and all(type(a) is int for a in row + [den_k])
        poly = gegenbauer(d, k)
        assert [Fraction(a, den_k) for a in row] == [
            gegenbauer_values(d, t, [k])[0] for t in ts
        ] == [poly.evaluate(t) for t in ts], (d, k, ts)
