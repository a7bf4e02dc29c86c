import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from harmonic_codes import embedding
from harmonic_codes.cli import main
from harmonic_codes.codes import certify, report_to_json
from harmonic_codes.embedding import (
    build_code,
    embed_degree2,
    flatten_coordinates,
    float_code_to_text,
    frobenius_inner,
    gram_from_text,
    gram_to_text,
    normalized_inner,
)
from harmonic_codes.harmonics import gegenbauer
from harmonic_codes.lattice import LatticeCode, code_to_text, generate_e8_roots

# split of the 57120 non-antipodal gram entries, frozen from the exact scan
POSITIVE_SEVENTH_COUNT = 28560
NEGATIVE_SEVENTH_COUNT = 28560

# sha256 of the E8 exports: any change to their bytes, float rounding included, fails
FLOAT_EXPORT_SHA256 = "17146d12388234c5fec02a6790f208284e92caf684b740a1d64724964b212acb"
EXACT_GRAM_SHA256 = "48165c816858619c30f6e65dfd8ee7fe4ef759cc4df436a807cd8724036f54e7"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _float_rows(code):
    return [[float(x) for x in line.split()] for line in float_code_to_text(code).splitlines()[1:]]


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


def test_normalized_inner_self_is_one(e8_roots):
    a = embed_degree2(e8_roots, 0)
    assert normalized_inner(a, a) == 1


def test_normalized_inner_reproduces_kernel_values(e8_roots):
    pts = e8_roots.points
    i = pts.index((2, 2, 0, 0, 0, 0, 0, 0))
    j = pts.index((2, 0, 2, 0, 0, 0, 0, 0))   # normalized inner product 1/2
    k = pts.index((2, 0, 0, 2, 0, 0, 0, 0))
    orth = pts.index((0, 0, 2, 2, 0, 0, 0, 0))  # orthogonal to pts[i]
    assert e8_roots.normalized_inner(i, j) == Fraction(1, 2)
    assert e8_roots.normalized_inner(i, orth) == 0
    a, b, c = (embed_degree2(e8_roots, t) for t in (i, j, orth))
    assert normalized_inner(a, b) == Fraction(1, 7)
    assert normalized_inner(a, c) == Fraction(-1, 7)
    assert normalized_inner(a, embed_degree2(e8_roots, k)) == Fraction(1, 7)


def test_normalized_inner_order_mismatch(e8_roots):
    small = LatticeCode(2, 1, 1, ((1, 0), (-1, 0)))
    with pytest.raises(ValueError, match="orders 8 and 2 differ"):
        normalized_inner(embed_degree2(e8_roots, 0), embed_degree2(small, 0))


def test_kernel_identity_on_sampled_pairs(e8_roots):
    # generic Fraction-arithmetic route, independent of the gram fast path
    g2 = gegenbauer(7, 2)
    rng = random.Random(17)
    for _ in range(150):
        i, j = rng.randrange(240), rng.randrange(240)
        a, b = embed_degree2(e8_roots, i), embed_degree2(e8_roots, j)
        assert normalized_inner(a, b) == g2.evaluate(e8_roots.normalized_inner(i, j))


def test_build_code_shape(e8_code):
    assert len(e8_code) == 240
    assert e8_code.ambient_harmonic_dim == 35
    assert len(e8_code.gram) == 240
    assert all(len(row) == 240 for row in e8_code.gram)
    # the representatives come first and their sign flips second: each
    # quadrant of the Gram is +-B, B the Frobenius Gram of the representatives
    for i in (0, 7, 119):
        for j in range(120):
            b = normalized_inner(embed_degree2(e8_code.reps, i), embed_degree2(e8_code.reps, j))
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
        a, b = embed_degree2(e8_code.reps, i % 120), embed_degree2(e8_code.reps, j % 120)
        assert e8_code.gram[i][j] == s * normalized_inner(a, b)


def test_embedded_points_are_equinorm(e8_roots):
    images = [embed_degree2(e8_roots, i) for i in range(240)]
    assert {sum(m[i][i] for i in range(len(m))) for m in images} == {0}
    assert {frobenius_inner(m, m) for m in images} == {Fraction(7, 8)}


def test_build_code_rejects_non_antipodal():
    code = LatticeCode(2, 1, 2, ((1, 1), (1, -1)))
    with pytest.raises(ValueError, match=r"point \(1, 1\) has no antipode"):
        build_code(code)


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


def test_gram_text_round_trip(e8_code):
    text = gram_to_text(e8_code.gram)
    assert text.splitlines()[0] == "240"
    assert gram_from_text(text) == e8_code.gram


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
    with pytest.raises(ValueError, match="bad rational token in gram row"):
        gram_from_text("1\n1e400\n")


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
