"""Fraction's canonical form, the p/q token parser and the Frobenius product
of plain Fraction rows; the parser and the product live in `embedding`."""

import math
import random
from fractions import Fraction

import pytest

from harmonic_codes.embedding import frobenius_inner, parse_rational


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


def _rand_sym(rng, n):
    vals = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            vals[i][j] = vals[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return _sym(vals)


def _sym(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _add(a, b):
    return _sym(
        [
            [x + y for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)
        ]
    )


def _scale(c, a):
    return _sym([[c * x for x in row] for row in a])


def test_frobenius_identity():
    i2 = _sym([[1, 0], [0, 1]])
    assert frobenius_inner(i2, i2) == 2


def test_frobenius_with_zero():
    m = _sym([[1, 2], [2, 3]])
    assert frobenius_inner(m, _sym([[0, 0], [0, 0]])) == 0


def test_frobenius_signed_diagonal():
    m = _sym([[Fraction(1, 2), 0], [0, Fraction(-1, 2)]])
    assert frobenius_inner(m, m) == Fraction(1, 2)


def test_frobenius_order_mismatch():
    with pytest.raises(ValueError, match="orders 2 and 3 differ"):
        frobenius_inner(_sym([[1, 0], [0, 1]]), _sym([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_frobenius_is_symmetric_bilinear_positive():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 4)
        a, b, c = (_rand_sym(rng, n) for _ in range(3))
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert frobenius_inner(a, b) == frobenius_inner(b, a)
        assert frobenius_inner(a, _add(b, c)) == frobenius_inner(a, b) + frobenius_inner(a, c)
        assert frobenius_inner(a, _scale(s, b)) == s * frobenius_inner(a, b)
        assert frobenius_inner(a, a) >= 0
        assert (frobenius_inner(a, a) == 0) == all(x == 0 for row in a for x in row)


def test_parse_rational_tokens():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("0.25") == Fraction(1, 4)
    for token in ("1/0", "x"):
        with pytest.raises(ValueError, match="bad rational token"):
            parse_rational(token)
    for token in ("1e400", "2.5E-3", "1e29999999"):
        with pytest.raises(ValueError, match="exponent notation is not accepted"):
            parse_rational(token)
