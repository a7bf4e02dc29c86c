import json
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import permutations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from harmonic_codes.analyzer import candidate_from_scan, constant_modulus_scan
from harmonic_codes.codes import (
    CodeReport,
    DesignCheck,
    FrameCheck,
    GramView,
    QuadraticBound,
    certify,
    design_strength,
    format_bound,
    frame_bound_check,
    gram_from_embedded,
    gram_spectrum,
    max_coherence,
    quadratic_bound,
    report_to_json,
)
from harmonic_codes.embedding import (
    _integer_flat,
    build_code,
    embed_degree2,
    float_code_to_text,
)
from harmonic_codes.harmonics import gegenbauer
from harmonic_codes.lattice import LatticeCode, generate_e8_roots, select_antipodal_representatives
from test_embedding import _dn_roots, spectrum
from test_lattice import _cross_polytope


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


def _gram_of_vectors(vectors):
    entries = tuple(
        tuple(sum(a * b for a, b in zip(p, q)) for q in vectors) for p in vectors
    )
    return GramView(entries=entries)


def _lattice_gram(code):
    """The normalized Gram of an integer code: Fraction(p.q, norm) for every pair."""
    pts = code.points
    return GramView(
        entries=tuple(
            tuple(Fraction(sum(a * b for a, b in zip(p, q)), code.norm_sq_scaled) for q in pts)
            for p in pts
        )
    )


# --- gram views -------------------------------------------------------------


def test_gram_from_embedded_e8(e8_gram):
    assert e8_gram.n == 240
    assert all(e8_gram.entries[i][i] == 1 for i in range(240))


def test_gram_from_embedded_two_point_pair():
    g = gram_from_embedded(_pair_code())
    assert g.entries == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1)))


def test_gram_view_validation():
    one, zero = Fraction(1), Fraction(0)
    for rows in (((one, zero),), ((1, 2, 3), (2, 1, 3))):
        with pytest.raises(ValueError, match="matrix is not square"):
            GramView(entries=rows)
    with pytest.raises(ValueError, match="diagonal entry 1 is not 1"):
        GramView(entries=((one, zero), (zero, Fraction(2))))
    for rows in (((one, zero), (Fraction(1, 2), one)), ((1, 2), (3, 4))):
        with pytest.raises(ValueError, match=r"entries \(0,1\) and \(1,0\) differ"):
            GramView(entries=rows)


# --- coherence --------------------------------------------------------------


def test_max_coherence_e8(e8_gram):
    assert max_coherence(e8_gram) == Fraction(1, 7)


def test_max_coherence_lattice_roots(e8_roots):
    assert max_coherence(_lattice_gram(e8_roots)) == Fraction(1, 2)


def test_max_coherence_orthonormal():
    assert max_coherence(_identity_gram(3)) == 0


def test_max_coherence_repeated_point():
    # x, x, -x, -x: the non-antipodal pairs (0,3), (1,2) carry -1 like the
    # antipodal ones, but (0,1), (2,3) carry +1, so the coherence is still 1
    one = Fraction(1)
    x = (one, one, -one, -one)
    g = GramView(entries=(x, x, tuple(-v for v in x), tuple(-v for v in x)))
    assert gram_spectrum(g) == {-one: 8, one: 4}
    assert max_coherence(g) == 1


def test_max_coherence_antipodal_flag():
    g = gram_from_embedded(_pair_code())
    with pytest.raises(ValueError, match="no admissible pair"):
        max_coherence(g)


@st.composite
def antipodal_unit_vectors(draw):
    """Rational unit vectors in dims 2-5, some repeated and some negated, then
    all of them negated: point i + N is the sign flip of point i."""
    rng = draw(st.randoms())
    m = draw(st.integers(2, 5))
    base = [_unit_vector(rng, m) for _ in range(draw(st.integers(1, 3)))]
    base += [tuple(-x for x in v) for v in base]
    reps = draw(st.lists(st.sampled_from(base), min_size=1, max_size=5))
    return reps + [tuple(-x for x in v) for v in reps]


@settings(max_examples=150, deadline=None)
@given(vectors=antipodal_unit_vectors(), dim=st.integers(2, 6))
def test_coherence_skips_exactly_the_partner_pairs(vectors, dim):
    # witness: a double loop over index pairs, skipping each point's partner
    n = len(vectors)
    g = _gram_of_vectors(vectors)
    admissible = [
        abs(g.entries[i][j])
        for i in range(n)
        for j in range(n)
        if j != i and j != (i + n // 2) % n
    ]
    if not admissible:
        with pytest.raises(ValueError, match="no admissible pair"):
            max_coherence(g)
    else:
        assert max_coherence(g) == max(admissible)
    # P_2 on S^(dim-1) is (dim t^2 - 1)/(dim - 1), so the frame excess is the
    # k = 2 design residual times (dim - 1)/dim when both folds add the n term
    frame = frame_bound_check(g, dim)
    residuals = design_strength(g, dim - 1, 2).residuals
    assert frame.frame_sum - frame.frame_bound == Fraction(dim - 1, dim) * residuals[1]


# --- frame bound ------------------------------------------------------------


def test_frame_bound_e8_tight(e8_gram):
    check = frame_bound_check(e8_gram, 35)
    assert check.frame_sum == Fraction(57600, 35)
    assert check.frame_sum == Fraction(11520, 7)
    assert check.frame_bound == check.frame_sum
    assert check.satisfied


def test_frame_bound_single_vector():
    check = frame_bound_check(GramView(entries=((Fraction(1),),)), 1)
    assert (check.frame_sum, check.frame_bound) == (1, 1)
    assert check.satisfied


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
    with pytest.raises(ValueError, match="dimension must be positive"):
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
    assert Fraction(bound.num, bound.den) == Fraction(1, 49)
    assert bound.value == Fraction(1, 7)


def test_quadratic_bound_orthonormal_case():
    for dim in (5, 24, 35):
        bound = quadratic_bound(2 * dim, dim)
        assert Fraction(bound.num, bound.den) == 0
        assert bound.value == 0


def test_quadratic_bound_clamps_at_zero():
    bound = quadratic_bound(6, 5)
    assert Fraction(bound.num, bound.den) == 0
    assert bound.value == 0


def test_quadratic_bound_irrational():
    bound = quadratic_bound(98, 24)
    assert Fraction(bound.num, bound.den) == Fraction(25, 1152)
    assert bound.value is None


def test_quadratic_bound_rejects_bad_input():
    with pytest.raises(ValueError, match="even number of points"):
        quadratic_bound(241, 35)
    with pytest.raises(ValueError, match="need at least two antipodal pairs"):
        quadratic_bound(2, 35)
    with pytest.raises(ValueError, match="dimension must be positive"):
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
        g = _gram_of_vectors(vectors)
        bound = quadratic_bound(2 * half, m)
        coherence = max_coherence(g)
        assert coherence * coherence >= Fraction(bound.num, bound.den)


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
    check = design_strength(_lattice_gram(e8_roots), 7, 8)
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
    original = _lattice_gram(LatticeCode(3, 1, 1, tuple(points)))
    permuted = _lattice_gram(LatticeCode(3, 1, 1, tuple(shuffled)))
    assert design_strength(original, 2, 4) == design_strength(permuted, 2, 4)


def test_design_strength_rejects_bad_t_max(e8_gram):
    with pytest.raises(ValueError, match="t_max must be at least 1"):
        design_strength(e8_gram, 34, 0)
    # the sphere is checked even where no histogram value runs the recurrence
    one_point = GramView(entries=((Fraction(1),),))
    assert design_strength(one_point, 2, 3).residuals == (1, 1, 1)
    for g in (e8_gram, one_point):
        with pytest.raises(ValueError, match="sphere dimension must be >= 1"):
            design_strength(g, 0, 3)


# --- certification ----------------------------------------------------------


def test_certify_e8(e8_report):
    assert e8_report.ambient_dim == 35
    assert e8_report.n_points == 240
    assert max_coherence(e8_report) == Fraction(1, 7)
    assert gram_spectrum(e8_report) == {
        Fraction(-1): 240,
        Fraction(-1, 7): 28560,
        Fraction(1, 7): 28560,
    }
    assert Fraction(e8_report.bound.num, e8_report.bound.den) == Fraction(1, 49)
    assert e8_report.bound.value == Fraction(1, 7)
    assert (e8_report.frame.frame_sum, e8_report.frame.frame_bound) == (Fraction(11520, 7), Fraction(11520, 7))
    assert e8_report.frame.satisfied
    assert e8_report.design.strength == 3
    assert e8_report.optimal_antipodal
    assert e8_report.passed


def test_certify_orthonormal_plus_minus():
    # three disjoint off-diagonal unit matrices: orthogonal traceless frame
    def unit(i, j):
        entries = [[Fraction(0)] * 3 for _ in range(3)]
        entries[i][j] = entries[j][i] = Fraction(1)
        return tuple(map(tuple, entries))

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    flats = [_integer_flat(unit(i, j), 1) for i, j in ((0, 1), (0, 2), (1, 2))]
    # point i + 3 is the sign flip of point i
    points = [(s, f) for s in (1, -1) for f in flats]
    g = GramView(
        entries=tuple(
            tuple(s * t * Fraction(dot(a, b), dot(a, a)) for t, b in points) for s, a in points
        )
    )
    bound = quadratic_bound(g.n, 3)
    frame = frame_bound_check(g, 3)
    assert g.n == 6
    assert max_coherence(g) == 0
    assert bound.value == 0
    assert frame.frame_sum == frame.frame_bound == 12
    assert design_strength(g, 2, 3).strength == 3
    assert max_coherence(g) ** 2 == Fraction(bound.num, bound.den)


def test_certify_non_optimal_code():
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    points = basis + tuple(tuple(-x for x in p) for p in basis)
    report = certify(build_code(LatticeCode(3, 1, 1, points)))
    assert report.ambient_dim == 5
    assert report.n_points == 6
    assert max_coherence(report) == Fraction(1, 2)
    assert report.bound.value == 0
    assert not report.optimal_antipodal
    assert not report.passed


# --- serialization ----------------------------------------------------------


def test_format_helpers():
    assert format_bound(QuadraticBound(1, 49)) == "1/7"
    assert format_bound(QuadraticBound(25, 1152)) == "sqrt(25/1152)"
    # square denominator, non-square numerator: still irrational
    assert format_bound(QuadraticBound(2, 9)) == "sqrt(2/9)"
    assert format_bound(QuadraticBound(0, 1)) == "0"
    assert format_bound(quadratic_bound(98, 24)) == "sqrt(25/1152)"


def test_report_dict_key_order(e8_report):
    assert list(json.loads(report_to_json(e8_report))) == [
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
        den=4,
        coherence=1,
        counts={1: 2},
        bound=QuadraticBound(num=25, den=1152),
        frame=FrameCheck(frame_num=400, bound_num=400, den=1),
        design=DesignCheck(nums=(0, 1), dens=(1, 1)),
    )
    assert report.design.strength == 1
    assert not report.optimal_antipodal
    assert json.loads(report_to_json(report))["bound"] == "sqrt(25/1152)"


def _cross_polytope_code(m):
    """+-e_i in R^m: m = 2 is the square on the circle."""
    return LatticeCode(m, 1, 1, _cross_polytope(m, 1))


# exit 0 and exit 1, rational and irrational bounds: E8 meets 1/7, D16 falls
# short of sqrt(7/2151), and every cross-polytope is short of the bound 0
_REPORT_CODES = {
    **{f"cross-polytope-{m}": partial(_cross_polytope_code, m) for m in range(2, 9)},
    **{f"d{n}": partial(_dn_roots, n) for n in (*range(4, 9), 16)},
    "e8": generate_e8_roots,
}


@lru_cache(maxsize=None)
def _report_code(name):
    return build_code(_REPORT_CODES[name]())


def _report_json_witness(report):
    return json.dumps({
        "ambient_dim": report.ambient_dim,
        "n_points": report.n_points,
        "coherence": str(max_coherence(report)),
        "spectrum": {str(v): count for v, count in gram_spectrum(report).items()},
        "bound": format_bound(report.bound),
        "frame_sum": str(report.frame.frame_sum),
        "frame_bound": str(report.frame.frame_bound),
        "design_strength": report.design.strength,
        "optimal_antipodal": report.optimal_antipodal,
    }, indent=2) + "\n"


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_REPORT_CODES)), t_max=st.integers(1, 6))
@example(name="e8", t_max=3)
@example(name="d16", t_max=3)
def test_report_json_matches_json_dumps_witness(name, t_max):
    report = certify(_report_code(name), t_max=t_max)
    assert report_to_json(report) == _report_json_witness(report)


# --- histogram folds against an independent witness ------------------------


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


def _off_diagonal_counts(g):
    """The Gram view's entries off the diagonal, counted as Fractions: the
    histogram straight from the explicit Gram, with no integer counts read."""
    return Counter(v for i, row in enumerate(g.entries) for j, v in enumerate(row) if i != j)


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
    [(partial(_cross_polytope_code, 3), False), (partial(_dn_roots, 4), False), (None, True)],
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
    assert gram_spectrum(report) == spectrum
    assert report.frame.frame_sum == frame_sum
    assert max_coherence(report) == coherence
    assert report.optimal_antipodal is optimal
    assert report.design.residuals == residuals
    strength = next((k for k, r in enumerate(residuals) if r != 0), t_max)
    assert report.design.strength == strength


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
    g = GramView(entries=gram)
    dim = code.ambient_harmonic_dim
    bound = quadratic_bound(g.n, dim)
    frame = frame_bound_check(g, dim)
    coherence = max_coherence(g)
    report = certify(code, t_max=t_max)
    assert (report.ambient_dim, report.n_points) == (dim, g.n)
    assert max_coherence(report) == coherence
    assert gram_spectrum(report) == gram_spectrum(g)
    assert report.bound == bound
    assert (report.frame.frame_sum, report.frame.frame_bound) == (frame.frame_sum, frame.frame_bound)
    assert report.design.residuals == design_strength(g, dim - 1, t_max).residuals
    # the verdict against the explicit-Gram witness, spelled out
    optimal = coherence * coherence == Fraction(bound.num, bound.den)
    assert report.optimal_antipodal is optimal
    assert report.passed is (optimal and frame.frame_sum >= frame.frame_bound)
    # the frame excess is the k = 2 design residual, scaled by (dim - 1)/dim
    residuals = design_strength(g, dim - 1, 2).residuals
    assert frame.frame_sum - frame.frame_bound == Fraction(dim - 1, dim) * residuals[1]
    assert gram_spectrum(code) == _off_diagonal_counts(g)
    # both histograms count ordered pairs of distinct points: the Gram spectrum
    assert sum(gram_spectrum(code).values()) == g.n * (g.n - 1)
    assert gram_spectrum(code) == gram_spectrum(g)
    # the degree-2 scan candidate over the representatives' spectrum is the certificate
    (scan,) = constant_modulus_scan(spectrum(code.reps), roots.ambient_dim - 1, [2])
    candidate = candidate_from_scan(scan, code.n)
    assert (scan.harmonic_dim, candidate.n_points) == (report.ambient_dim, report.n_points)
    assert candidate.scan.max_modulus == max_coherence(report)
    assert candidate.bound == report.bound
    # the closed-form float export against the same explicit Frobenius Gram
    rows = [[float(x) for x in line.split()] for line in float_code_to_text(code).splitlines()[1:]]
    half = len(rows) // 2
    for i, row in enumerate(rows):
        assert abs(math.sqrt(sum(x * x for x in row)) - 1.0) <= 1e-12
        for j in range(i):
            assert abs(sum(x * y for x, y in zip(row, rows[j])) - float(gram[i][j])) <= 1e-12
    assert rows[half:] == [[-x for x in row] for row in rows[:half]]


# --- integer certificate against a Fraction witness -------------------------


@st.composite
def antipodal_integer_codes(draw):
    """Some of the integer vectors of one norm in dims 2-5, coordinates in -2..2,
    each with its antipode: mostly short of the bound, often with orthogonal
    pairs, whose g2 numerator -n^2 shares n^2 with den = (m - 1) n^2."""
    m = draw(st.integers(2, 5))
    norm = draw(st.integers(1, 2)) ** 2 + sum(c * c for c in draw(st.lists(st.integers(-2, 2), max_size=m - 1)))
    shell = [p for p in product(range(-2, 3), repeat=m)
             if sum(c * c for c in p) == norm and p > tuple(-c for c in p)]
    reps = draw(st.lists(st.sampled_from(shell), min_size=min(2, len(shell)), max_size=16, unique=True))
    assume(len(reps) >= 2)
    return LatticeCode(m, 1, norm, tuple(reps) + tuple(tuple(-c for c in p) for p in reps))


def _fraction_certificate(g, dim, t_max):
    """Coherence, sorted spectrum, radicand, frame sum and bound, and residuals,
    in Fraction arithmetic over a Gram view's explicit entries."""
    hist = _off_diagonal_counts(g)
    polys = [gegenbauer(dim - 1, k) for k in range(1, t_max + 1)]
    return (
        max(abs(v) for v in hist if v != -1),
        {v: hist[v] for v in sorted(hist)},
        Fraction(max(0, g.n - 2 * dim), dim * (g.n - 2)),
        g.n + sum(v * v * c for v, c in hist.items()),
        Fraction(g.n * g.n, dim),
        tuple(g.n + sum(c * p.evaluate(v) for v, c in hist.items()) for p in polys),
    )


@settings(max_examples=60, deadline=None)
@given(roots=antipodal_integer_codes(), t_max=st.integers(1, 4))
# optimal, its g2 numerators +-64 sharing 64 with den 448
@example(roots=generate_e8_roots(), t_max=3)
# short of the irrational bound sqrt(7/2151)
@example(roots=_dn_roots(16), t_max=3)
def test_integer_certificate_matches_fraction_witness(roots, t_max):
    # the explicit Gram is the one test_built_code_matches_explicit_frobenius_gram
    # pins to the Frobenius witness; two representatives always leave an admissible pair
    code = build_code(roots)
    g = GramView(entries=code.gram)
    dim = code.ambient_harmonic_dim
    coherence, spectrum_, radicand, frame_sum, frame_bound, residuals = _fraction_certificate(g, dim, t_max)
    # the integer folds over the Gram view's lcm numerators
    frame = frame_bound_check(g, dim)
    assert max_coherence(g) == coherence
    assert gram_spectrum(g) == spectrum_
    assert (frame.frame_sum, frame.frame_bound) == (frame_sum, frame_bound)
    assert frame.satisfied is (frame_sum >= frame_bound)
    assert design_strength(g, dim - 1, t_max).residuals == residuals
    # and over the built code's numerators over (m - 1) n^2, with its verdicts
    report = certify(code, t_max=t_max)
    optimal = coherence * coherence == radicand
    assert max_coherence(report) == coherence
    assert list(gram_spectrum(report).items()) == list(spectrum_.items())
    assert Fraction(report.bound.num, report.bound.den) == radicand
    assert (report.frame.frame_sum, report.frame.frame_bound) == (frame_sum, frame_bound)
    assert report.design.residuals == residuals
    assert report.optimal_antipodal is optimal
    assert report.passed is (optimal and frame_sum >= frame_bound)
    # the JSON against json.dumps of the witness
    p, q = math.isqrt(radicand.numerator), math.isqrt(radicand.denominator)
    rational = p * p == radicand.numerator and q * q == radicand.denominator
    assert report_to_json(report) == json.dumps({
        "ambient_dim": dim,
        "n_points": g.n,
        "coherence": str(coherence),
        "spectrum": {str(v): count for v, count in spectrum_.items()},
        "bound": str(Fraction(p, q)) if rational else f"sqrt({radicand})",
        "frame_sum": str(frame_sum),
        "frame_bound": str(frame_bound),
        "design_strength": next((k for k, r in enumerate(residuals) if r), t_max),
        "optimal_antipodal": optimal,
    }, indent=2) + "\n"
