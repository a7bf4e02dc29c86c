import json
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harmonic_codes.codes import (
    CodeReport,
    GramView,
    certify,
    design_strength,
    format_bound,
    frame_bound_check,
    gram_from_embedded,
    gram_from_lattice,
    gram_spectrum,
    max_coherence,
    quadratic_bound,
    report_to_dict,
    report_to_json,
)
from harmonic_codes.embedding import (
    _integer_flat,
    build_code,
    embed_degree2,
    float_code_to_text,
    normalized_inner,
)
from harmonic_codes.exact import DomainError, StructureError, SymMatrix
from harmonic_codes.harmonics import gegenbauer
from harmonic_codes.lattice import LatticeCode, select_antipodal_representatives


def _pair_code():
    return build_code(LatticeCode(2, 1, 1, ((1, 0), (-1, 0))))


def _identity_gram(n):
    one, zero = Fraction(1), Fraction(0)
    return GramView(
        entries=tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        )
    )


def _unit_vector(rng, m):
    # stereographic image of a rational point; exactly unit norm
    a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m - 1)]
    s = sum(x * x for x in a)
    v = tuple(2 * x / (1 + s) for x in a) + ((1 - s) / (1 + s),)
    assert sum(x * x for x in v) == 1
    return v


def _gram_of_vectors(vectors, antipode=None):
    entries = tuple(
        tuple(sum(a * b for a, b in zip(p, q)) for q in vectors) for p in vectors
    )
    return GramView(entries=entries, antipode=antipode)


# --- gram views -------------------------------------------------------------


def test_gram_from_embedded_e8(e8_gram):
    assert e8_gram.n == 240
    assert all(e8_gram.entries[i][i] == 1 for i in range(240))
    assert e8_gram.antipode is not None
    assert all(e8_gram.antipode[j] == (j + 120) % 240 for j in range(240))


def test_gram_from_embedded_two_point_pair():
    g = gram_from_embedded(_pair_code())
    assert g.entries == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1)))
    assert g.antipode == (1, 0)


def test_gram_from_embedded_missing_partner():
    # one point of the pair, its antipode map still naming the dropped partner
    g = gram_from_embedded(_pair_code())
    with pytest.raises(StructureError):
        GramView(entries=(g.entries[0][:1],), antipode=g.antipode[:1])


def test_gram_view_validation():
    one, zero = Fraction(1), Fraction(0)
    with pytest.raises(StructureError):
        GramView(entries=((one, zero),))
    with pytest.raises(StructureError):
        GramView(entries=((one, zero), (zero, Fraction(2))))
    with pytest.raises(StructureError):
        GramView(entries=((one, zero), (Fraction(1, 2), one)))
    ok = ((one, -one), (-one, one))
    with pytest.raises(StructureError):
        GramView(entries=ok, antipode=(1,))
    with pytest.raises(StructureError):
        GramView(entries=ok, antipode=(0, 1))
    with pytest.raises(StructureError):
        GramView(entries=((one, zero), (zero, one)), antipode=(1, 0))
    # a Gram view is a symmetric matrix: squareness and symmetry are SymMatrix's checks
    assert isinstance(GramView(entries=ok, antipode=(1, 0)), SymMatrix)


def test_gram_from_lattice_e8(e8_roots):
    g = gram_from_lattice(e8_roots)
    assert g.n == 240
    assert g.antipode is not None
    assert gram_spectrum(g) == {
        Fraction(-1): 240,
        Fraction(-1, 2): 13440,
        Fraction(0): 30240,
        Fraction(1, 2): 13440,
    }


def test_gram_from_lattice_without_antipodes():
    g = gram_from_lattice(LatticeCode(2, 1, 1, ((1, 0), (0, 1))))
    assert g.antipode is None
    assert g.entries == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


# --- coherence --------------------------------------------------------------


def test_max_coherence_e8(e8_gram):
    assert max_coherence(e8_gram) == Fraction(1, 7)


def test_max_coherence_lattice_roots(e8_roots):
    assert max_coherence(gram_from_lattice(e8_roots)) == Fraction(1, 2)


def test_max_coherence_orthonormal():
    assert max_coherence(_identity_gram(3)) == 0


def test_max_coherence_repeated_point():
    # x, x, -x, -x: the non-antipodal pairs (0,1), (2,3) carry +1 and
    # (0,3), (1,2) carry -1, so only the antipodal -1s may be dropped
    one = Fraction(1)
    x = (one, one, -one, -one)
    g = GramView(
        entries=(x, x, tuple(-v for v in x), tuple(-v for v in x)),
        antipode=(2, 3, 0, 1),
    )
    assert gram_spectrum(g) == {-one: 8, one: 4}
    assert max_coherence(g) == 1
    assert max_coherence(g, include_antipodal=True) == 1


def test_max_coherence_antipodal_flag():
    g = gram_from_embedded(_pair_code())
    with pytest.raises(DomainError):
        max_coherence(g)
    assert max_coherence(g, include_antipodal=True) == 1


# --- frame bound ------------------------------------------------------------


def test_frame_bound_e8_tight(e8_gram):
    check = frame_bound_check(e8_gram, 35)
    assert check.frame_sum == Fraction(57600, 35)
    assert check.frame_sum == Fraction(11520, 7)
    assert check.frame_bound == check.frame_sum
    assert check.satisfied


def test_frame_bound_single_vector():
    check = frame_bound_check(GramView(entries=((Fraction(1),),)), 1)
    assert check == (1, 1, True)


def test_frame_bound_orthonormal_basis():
    check = frame_bound_check(_identity_gram(4), 4)
    assert check.frame_sum == 4
    assert check.frame_bound == 4
    assert check.satisfied


def test_frame_bound_slack_when_dim_larger():
    check = frame_bound_check(_identity_gram(3), 4)
    assert check.frame_sum == 3
    assert check.frame_bound == Fraction(9, 4)
    assert check.satisfied


def test_frame_bound_rejects_bad_dim():
    with pytest.raises(DomainError):
        frame_bound_check(_identity_gram(2), 0)


def test_frame_bound_soundness_random_unit_vectors():
    # any n unit vectors in R^m satisfy the inequality; exact arithmetic
    rng = random.Random(41)
    for _ in range(200):
        m = rng.randint(2, 6)
        n = rng.randint(1, 12)
        vectors = [_unit_vector(rng, m) for _ in range(n)]
        g = _gram_of_vectors(vectors)
        assert frame_bound_check(g, m).satisfied


# --- quadratic bound --------------------------------------------------------


def test_quadratic_bound_e8_parameters():
    bound = quadratic_bound(240, 35)
    assert bound.radicand == Fraction(1, 49)
    assert bound.exact
    assert bound.value == Fraction(1, 7)


def test_quadratic_bound_orthonormal_case():
    for dim in (5, 24, 35):
        bound = quadratic_bound(2 * dim, dim)
        assert bound.radicand == 0
        assert bound.value == 0


def test_quadratic_bound_clamps_at_zero():
    bound = quadratic_bound(6, 5)
    assert bound.radicand == 0
    assert bound.value == 0


def test_quadratic_bound_irrational():
    bound = quadratic_bound(98, 24)
    assert bound.radicand == Fraction(25, 1152)
    assert not bound.exact
    assert bound.value is None


def test_quadratic_bound_rejects_bad_input():
    with pytest.raises(StructureError):
        quadratic_bound(241, 35)
    with pytest.raises(DomainError):
        quadratic_bound(2, 35)
    with pytest.raises(DomainError):
        quadratic_bound(240, 0)


def test_quadratic_bound_soundness_random_antipodal_sets():
    # some non-antipodal pair always reaches the bound
    rng = random.Random(43)
    for _ in range(100):
        m = rng.randint(2, 6)
        half = rng.randint(2, 8)
        chosen = {}
        while len(chosen) < half:
            v = _unit_vector(rng, m)
            neg = tuple(-x for x in v)
            if v not in chosen and neg not in chosen:
                chosen[v] = None
        vectors = list(chosen) + [tuple(-x for x in v) for v in chosen]
        antipode = tuple((i + half) % (2 * half) for i in range(2 * half))
        g = _gram_of_vectors(vectors, antipode=antipode)
        bound = quadratic_bound(2 * half, m)
        coherence = max_coherence(g)
        assert coherence * coherence >= bound.radicand


# --- design strength --------------------------------------------------------


def test_design_strength_e8_embedded(e8_gram):
    check = design_strength(e8_gram, 34, 3)
    assert check.strength == 3
    assert check.residuals == (0, 0, 0)


def test_design_strength_e8_embedded_stops_at_three(e8_gram):
    check = design_strength(e8_gram, 34, 5)
    assert check.strength == 3
    assert check.residuals[3] == Fraction(149760, 343)
    assert check.residuals[4] == 0


def test_design_strength_e8_roots_is_seven(e8_roots):
    check = design_strength(gram_from_lattice(e8_roots), 7, 8)
    assert check.strength == 7
    assert check.residuals[:7] == (0,) * 7
    assert check.residuals[7] == Fraction(172800, 143)


def test_design_strength_single_antipodal_pair():
    g = gram_from_embedded(_pair_code())
    check = design_strength(g, 1, 2)
    assert check.strength == 1
    assert check.residuals == (0, 4)


def test_design_strength_odd_moments_vanish_for_antipodal(e8_gram):
    check = design_strength(e8_gram, 34, 5)
    assert check.residuals[0] == 0
    assert check.residuals[2] == 0
    assert check.residuals[4] == 0


def test_design_strength_invariant_under_relabeling():
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    points = basis + [tuple(-x for x in p) for p in basis]
    rng = random.Random(47)
    shuffled = points[:]
    rng.shuffle(shuffled)
    original = gram_from_lattice(LatticeCode(3, 1, 1, tuple(points)))
    permuted = gram_from_lattice(LatticeCode(3, 1, 1, tuple(shuffled)))
    assert design_strength(original, 2, 4) == design_strength(permuted, 2, 4)


def test_design_strength_rejects_bad_t_max(e8_gram):
    with pytest.raises(DomainError):
        design_strength(e8_gram, 34, 0)


# --- certification ----------------------------------------------------------


def test_certify_e8(e8_report):
    assert e8_report.ambient_dim == 35
    assert e8_report.n_points == 240
    assert e8_report.coherence_a == Fraction(1, 7)
    assert e8_report.spectrum == {
        Fraction(-1): 240,
        Fraction(-1, 7): 28560,
        Fraction(1, 7): 28560,
    }
    assert e8_report.lower_bound_a == Fraction(1, 7)
    assert e8_report.bound_radicand == Fraction(1, 49)
    assert e8_report.frame_sum == Fraction(11520, 7)
    assert e8_report.frame_bound == Fraction(11520, 7)
    assert e8_report.design_strength == 3
    assert e8_report.optimal_antipodal


def test_certify_orthonormal_plus_minus():
    # three disjoint off-diagonal unit matrices: orthogonal traceless frame
    def unit(i, j):
        entries = [[Fraction(0)] * 3 for _ in range(3)]
        entries[i][j] = entries[j][i] = Fraction(1)
        return SymMatrix(tuple(map(tuple, entries)))

    mats = [unit(0, 1), unit(0, 2), unit(1, 2)]
    # point i + 3 is the sign flip of point i
    points = [(s, m) for s in (1, -1) for m in mats]
    g = GramView(
        entries=tuple(
            tuple(s * t * normalized_inner(a, b) for t, b in points) for s, a in points
        ),
        antipode=(3, 4, 5, 0, 1, 2),
    )
    bound = quadratic_bound(g.n, 3)
    frame = frame_bound_check(g, 3)
    assert g.n == 6
    assert max_coherence(g) == 0
    assert bound.value == 0
    assert frame.frame_sum == frame.frame_bound == 12
    assert design_strength(g, 2, 3).strength == 3
    assert max_coherence(g) ** 2 == bound.radicand


def test_certify_non_optimal_code():
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    points = basis + tuple(tuple(-x for x in p) for p in basis)
    report = certify(build_code(LatticeCode(3, 1, 1, points)))
    assert report.ambient_dim == 5
    assert report.n_points == 6
    assert report.coherence_a == Fraction(1, 2)
    assert report.lower_bound_a == 0
    assert not report.optimal_antipodal


# --- serialization ----------------------------------------------------------


def test_format_helpers():
    assert format_bound(Fraction(1, 7), Fraction(1, 49)) == "1/7"
    assert format_bound(None, Fraction(25, 1152)) == "sqrt(25/1152)"


def test_report_dict_key_order(e8_report):
    assert list(report_to_dict(e8_report)) == [
        "ambient_dim",
        "n_points",
        "coherence",
        "spectrum",
        "bound",
        "frame_sum",
        "frame_bound",
        "design_strength",
        "optimal_antipodal",
    ]


def test_report_json_content(e8_report):
    parsed = json.loads(report_to_json(e8_report))
    assert parsed["ambient_dim"] == 35
    assert parsed["n_points"] == 240
    assert parsed["coherence"] == "1/7"
    assert parsed["spectrum"] == {"-1": 240, "-1/7": 28560, "1/7": 28560}
    assert parsed["bound"] == "1/7"
    assert parsed["frame_sum"] == "11520/7"
    assert parsed["frame_bound"] == "11520/7"
    assert parsed["design_strength"] == 3
    assert parsed["optimal_antipodal"] is True


def test_report_json_irrational_bound():
    report = CodeReport(
        ambient_dim=24,
        n_points=98,
        coherence_a=Fraction(1, 4),
        spectrum={Fraction(1, 4): 2},
        lower_bound_a=None,
        bound_radicand=Fraction(25, 1152),
        frame_sum=Fraction(400),
        frame_bound=Fraction(400),
        design_strength=1,
        optimal_antipodal=False,
    )
    assert json.loads(report_to_json(report))["bound"] == "sqrt(25/1152)"


# --- histogram folds against an independent witness ------------------------


def _cross_polytope_roots():
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return LatticeCode(3, 1, 1, basis + tuple(tuple(-x for x in p) for p in basis))


def _d4_roots():
    points = []
    for i, j in combinations(range(4), 2):
        for si in (1, -1):
            for sj in (1, -1):
                p = [0] * 4
                p[i], p[j] = si, sj
                points.append(tuple(p))
    return LatticeCode(4, 1, 2, tuple(points))


def _frobenius_gram(roots):
    """The 2N x 2N Gram of the sign-paired degree-2 images from integer Frobenius
    sums of the explicit matrices, as acceptance criterion 05 computes them.

    Shares no code with the kernel map behind build_code's histogram and gram.
    """
    reps = select_antipodal_representatives(roots)
    denom = reps.norm_sq_scaled * reps.ambient_dim
    flats = [_integer_flat(embed_degree2(reps, i), denom) for i in range(len(reps))]
    norm = sum(x * x for x in flats[0])
    base = [[Fraction(sum(x * y for x, y in zip(a, b)), norm) for b in flats] for a in flats]
    return tuple(
        tuple(s * v for s in signs for v in row)
        for signs in ((1, -1), (-1, 1))
        for row in base
    )


def _direct_certificate(gram, dim, t_max):
    """Spectrum, frame sum, residuals and coherence by a double loop over the
    witness Gram, whose point i + N is the sign flip of point i."""
    half = len(gram) // 2
    # memoized per value only to keep the E8 scan short; every entry is still summed
    polys = [lru_cache(maxsize=None)(gegenbauer(dim - 1, k).evaluate) for k in range(1, t_max + 1)]
    spectrum, frame_sum, coherence = Counter(), Fraction(0), Fraction(0)
    residuals = [Fraction(0)] * t_max
    for i, row in enumerate(gram):
        for j, v in enumerate(row):
            frame_sum += v * v
            for k, evaluate in enumerate(polys):
                residuals[k] += evaluate(v)
            if i == j:
                continue
            spectrum[v] += 1
            if j != (i + half) % len(gram):
                coherence = max(coherence, abs(v))
    return dict(spectrum), frame_sum, tuple(residuals), coherence


@pytest.mark.parametrize(
    "make, optimal",
    [(_cross_polytope_roots, False), (_d4_roots, False), (None, True)],
    ids=["cross-polytope-3", "d4-roots", "e8"],
)
def test_histogram_folds_match_direct_scan(make, optimal, e8_roots):
    roots = e8_roots if make is None else make()
    code = build_code(roots)
    t_max = 3
    dim = code.ambient_harmonic_dim
    spectrum, frame_sum, residuals, coherence = _direct_certificate(
        _frobenius_gram(roots), dim, t_max
    )
    report = certify(code, t_max=t_max)
    assert report.spectrum == spectrum
    assert report.frame_sum == frame_sum
    assert report.coherence_a == coherence
    assert report.optimal_antipodal is optimal
    check = design_strength(code, dim - 1, t_max)
    assert check.residuals == residuals
    strength = next((k for k, r in enumerate(residuals) if r != 0), t_max)
    assert report.design_strength == check.strength == strength


@st.composite
def signed_permutation_codes(draw):
    """All signed permutations of a random small integer vector in dims 2-5."""
    m = draw(st.integers(2, 5))
    nonzero = draw(st.lists(st.integers(1, 3), min_size=1, max_size=min(m, 3)))
    v = tuple(nonzero) + (0,) * (m - len(nonzero))
    points = {
        tuple(s * c for s, c in zip(signs, perm))
        for perm in set(permutations(v))
        for signs in product((1, -1), repeat=m)
    }
    assume(len(points) <= 200)
    return LatticeCode(m, 1, sum(c * c for c in v), tuple(sorted(points)))


@settings(max_examples=40, deadline=None)
@given(roots=signed_permutation_codes(), t_max=st.integers(1, 5))
def test_built_code_matches_explicit_frobenius_gram(roots, t_max):
    code = build_code(roots)
    gram = _frobenius_gram(roots)
    assert code.gram == gram
    g = GramView(entries=gram, antipode=code.antipode)
    dim = code.ambient_harmonic_dim
    bound = quadratic_bound(g.n, dim)
    frame = frame_bound_check(g, dim)
    coherence = max_coherence(g)
    assert certify(code, t_max=t_max) == CodeReport(
        ambient_dim=dim,
        n_points=g.n,
        coherence_a=coherence,
        spectrum=gram_spectrum(g),
        lower_bound_a=bound.value,
        bound_radicand=bound.radicand,
        frame_sum=frame.frame_sum,
        frame_bound=frame.frame_bound,
        design_strength=design_strength(g, dim - 1, t_max).strength,
        optimal_antipodal=coherence * coherence == bound.radicand,
    )
    assert code.histogram == g.histogram
    # the closed-form float export against the same explicit Frobenius Gram
    rows = [[float(x) for x in line.split()] for line in float_code_to_text(code).splitlines()[1:]]
    half = len(rows) // 2
    for i, row in enumerate(rows):
        assert abs(math.sqrt(sum(x * x for x in row)) - 1.0) <= 1e-12
        for j in range(i):
            assert abs(sum(x * y for x, y in zip(row, rows[j])) - float(gram[i][j])) <= 1e-12
    assert rows[half:] == [[-x for x in row] for row in rows[:half]]
