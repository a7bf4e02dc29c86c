import hashlib
import io
import json

import pytest

from harmonic_codes.cli import main
from harmonic_codes.embedding import gram_from_text, gram_to_text
from harmonic_codes.harmonics import gegenbauer_family
from harmonic_codes.lattice import code_to_text, generate_e8_roots

NON_ANTIPODAL_BASIS = """\
3 6 1 1
1 0 0
0 1 0
0 0 1
-1 0 0
0 -1 0
0 0 -1
"""

SIGNED_PERMUTATIONS_OF_1_2 = """\
2 8 1 5
1 2
1 -2
-1 2
-1 -2
2 1
2 -1
-2 1
-2 -1
"""

# sha256 of stdout for a k = 1..12 scan of the E8 spectrum with candidates, and
# for E8's design residuals up to t = 12: any change to their bytes fails
PINNED_SCAN_SHA256 = "4355d43f766a1597db922c2807f802eb56dc91b83a52e954997db8596dca2486"
E8_DESIGN_T12_SHA256 = "296318f5464fb4e209b00925d74fb1cde7a5f571e7f57d83f3937e75fb6f9bce"
PINNED_SCAN = ["scan", "--in", "-", "-d", "7", "-k", "1", "--k-max", "12", "--n-points", "240"]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def roots_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "e8.code"
    path.write_text(code_to_text(generate_e8_roots()), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def basis_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "basis.code"
    path.write_text(NON_ANTIPODAL_BASIS, encoding="utf-8")
    return str(path)


def test_roots_to_file(tmp_path, capsys):
    out = tmp_path / "e8.code"
    assert main(["roots", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "8 240 2 8"
    assert len(lines) == 241
    assert all(len(line.split()) == 8 for line in lines[1:])


def test_roots_to_stdout_matches_file(tmp_path, capsys):
    out = tmp_path / "e8.code"
    assert main(["roots", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["roots"]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_dim(capsys):
    assert main(["dim", "-d", "7", "-k", "2"]) == 0
    assert capsys.readouterr().out == "35\n"


def test_gegenbauer_coefficients(capsys):
    assert main(["gegenbauer", "-d", "7", "-k", "2"]) == 0
    assert capsys.readouterr().out == "-1/7 0 8/7\n"
    assert main(["gegenbauer", "-d", "1", "-k", "12"]) == 0
    assert capsys.readouterr().out == "1 0 -72 0 840 0 -3584 0 6912 0 -6144 0 2048\n"


def test_gegenbauer_evaluate(capsys):
    assert main(["gegenbauer", "-d", "7", "-k", "2", "--at", "1/2"]) == 0
    assert capsys.readouterr().out == "1/7\n"
    assert main(["gegenbauer", "-d", "34", "-k", "2", "--at", "1/7"]) == 0
    assert capsys.readouterr().out == "-1/119\n"


def test_gegenbauer_bad_point_exits_one(capsys):
    assert main(["gegenbauer", "-d", "7", "-k", "2", "--at", "1/0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err == "harmonic-codes: error: bad rational token '1/0'\n"
    assert main(["gegenbauer", "-d", "3", "-k", "2", "--at", "1e29999999"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # rejected before Fraction would expand it to a thirty-million-digit integer
    assert captured.err == (
        "harmonic-codes: error: exponent notation is not accepted: '1e29999999'\n"
    )


def test_bound_exact(capsys):
    assert main(["bound", "-n", "240", "--dim", "35"]) == 0
    assert capsys.readouterr().out == "1/7\n"


def test_bound_irrational(capsys):
    assert main(["bound", "-n", "98", "--dim", "24"]) == 0
    assert capsys.readouterr().out == "sqrt(25/1152)\n"


def test_build_summary(roots_file, capsys):
    assert main(["build", "--in", roots_file]) == 0
    assert capsys.readouterr().out == (
        "n_points 240\n"
        "ambient_harmonic_dim 35\n"
        "gram_values -1 -1/7 1/7 1\n"
    )


def test_certify_optimal(roots_file, capsys):
    assert main(["certify", "--in", roots_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["coherence"] == "1/7"
    assert report["bound"] == "1/7"
    assert report["design_strength"] == 3
    assert report["optimal_antipodal"] is True


def test_build_certify_matches_certify(roots_file, capsys):
    assert main(["certify", "--in", roots_file]) == 0
    first = capsys.readouterr().out
    assert main(["build", "--in", roots_file, "--certify"]) == 0
    assert capsys.readouterr().out == first


def test_certify_non_optimal_exits_one(basis_file, capsys):
    assert main(["certify", "--in", basis_file]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["coherence"] == "1/2"
    assert report["bound"] == "0"
    assert report["optimal_antipodal"] is False


def test_design(roots_file, capsys):
    assert main(["design", "--in", roots_file]) == 0
    assert capsys.readouterr().out == (
        "design_strength 3\n"
        "residual k=1 0\n"
        "residual k=2 0\n"
        "residual k=3 0\n"
    )


def test_design_t_max_five(roots_file, capsys):
    assert main(["design", "--in", roots_file, "--t-max", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "design_strength 3"
    assert lines[4] == "residual k=4 149760/343"
    assert lines[5] == "residual k=5 0"


def test_design_t_max_twelve_bytes_are_pinned(roots_file, capsys):
    assert main(["design", "--in", roots_file, "--t-max", "12"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "design_strength 3"
    assert len(out.splitlines()) == 13
    assert _sha256(out) == E8_DESIGN_T12_SHA256


def test_design_on_the_circle(capsys, monkeypatch):
    # The signed permutations of (1, 2): the image lies on S^1, so every
    # residual runs the d = 1 (Chebyshev) member of the family.
    monkeypatch.setattr("sys.stdin", io.StringIO(SIGNED_PERMUTATIONS_OF_1_2))
    assert main(["design", "--in", "-", "--t-max", "6"]) == 0
    assert capsys.readouterr().out == (
        "design_strength 1\n"
        "residual k=1 0\n"
        "residual k=2 3136/625\n"
        "residual k=3 0\n"
        "residual k=4 17774656/390625\n"
        "residual k=5 0\n"
        "residual k=6 8840512576/244140625\n"
    )


def test_scan_single_degree(tmp_path, capsys):
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text("0\n1/2\n-1/2\n", encoding="utf-8")
    assert main(["scan", "--in", str(spectrum), "-d", "7", "-k", "2"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    result = json.loads(line)
    assert result["harmonic_dim"] == 35
    assert result["constant_modulus"] is True
    assert result["modulus"] == "1/7"


def test_scan_degree_range_with_candidates(tmp_path, capsys):
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text("0\n1/2\n-1/2\n", encoding="utf-8")
    assert main(
        ["scan", "--in", str(spectrum), "-d", "7", "-k", "1", "--k-max", "2",
         "--n-points", "240"]
    ) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 4
    assert [line.get("k") for line in lines] == [1, None, 2, None]
    assert lines[3] == {
        "ambient_dim": 35,
        "n_points": 240,
        "coherence": "1/7",
        "bound": "1/7",
        "constant_modulus": True,
    }


def test_scan_bytes_are_pinned(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n1/2\n-1/2\n"))
    assert main(PINNED_SCAN) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 24
    assert _sha256(out) == PINNED_SCAN_SHA256


def test_scan_and_design_run_one_recurrence_each(roots_file, capsys, monkeypatch):
    # the k = 1..12 sweep with its candidates, and the t = 12 design fold,
    # each build one Gegenbauer family
    calls = []

    def counted(d, k_max):
        calls.append((d, k_max))
        return gegenbauer_family(d, k_max)

    monkeypatch.setattr("harmonic_codes.analyzer.gegenbauer_family", counted)
    monkeypatch.setattr("harmonic_codes.codes.gegenbauer_family", counted)
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n1/2\n-1/2\n"))
    assert main(PINNED_SCAN) == 0
    assert main(["design", "--in", roots_file, "--t-max", "12"]) == 0
    assert calls == [(7, 12), (34, 12)]


def test_scan_leech_spectrum(tmp_path, capsys):
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text("0\n1/4\n-1/4\n1/2\n-1/2\n", encoding="utf-8")
    assert main(["scan", "--in", str(spectrum), "-d", "23", "-k", "2"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["harmonic_dim"] == 299
    assert result["constant_modulus"] is False
    assert set(result["image"].values()) == {"-1/23", "1/46", "5/23"}


def test_scan_bad_n_points_writes_nothing(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
    argv = ["scan", "--in", "-", "-d", "7", "-k", "2", "--n-points", "3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("harmonic-codes: error:")


def test_scan_exponent_token_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n1e29999999\n"))
    assert main(["scan", "--in", "-", "-d", "7", "-k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("harmonic-codes: error:")
    assert captured.err.count("\n") == 1


def test_export_exact_round_trip(roots_file, tmp_path, capsys, e8_code):
    out = tmp_path / "gram.txt"
    assert main(["export", "--in", roots_file, "--exact", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == gram_to_text(e8_code.gram)
    assert gram_from_text(text) == e8_code.gram


def test_export_float_header(roots_file, capsys):
    assert main(["export", "--in", roots_file, "--float"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "35 240 float"
    assert len(lines) == 241


def test_stdin_input(roots_file, capsys, monkeypatch):
    with open(roots_file, encoding="utf-8") as f:
        text = f.read()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["build", "--in", "-"]) == 0
    assert capsys.readouterr().out.startswith("n_points 240\n")


def test_threads_flag_and_env(roots_file, capsys, monkeypatch):
    assert main(["build", "--in", roots_file]) == 0
    base = capsys.readouterr().out
    assert main(["build", "--in", roots_file, "--threads", "3"]) == 0
    assert capsys.readouterr().out == base
    monkeypatch.setenv("HARMONIC_CODES_THREADS", "2")
    assert main(["build", "--in", roots_file]) == 0
    assert capsys.readouterr().out == base


def test_bad_threads_env(roots_file, capsys, monkeypatch):
    monkeypatch.setenv("HARMONIC_CODES_THREADS", "lots")
    assert main(["build", "--in", roots_file]) == 1
    assert "HARMONIC_CODES_THREADS" in capsys.readouterr().err


def test_missing_input_file_exits_two(capsys):
    assert main(["build", "--in", "/nonexistent/e8.code"]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_domain_error_exits_one(capsys):
    assert main(["bound", "-n", "241", "--dim", "35"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_code_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("8 2 2 8\n1 1 1 1 1 1 1 1\n", encoding="utf-8")
    assert main(["build", "--in", str(bad)]) == 1


def test_empty_code_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("8 0 2 8\n"))
    assert main(["build", "--in", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "harmonic-codes: error: code has no points to embed\n"


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 64
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["dim", "-d", "7"])
    assert excinfo.value.code == 64


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == "1.0.0"


def test_repeated_runs_are_identical(roots_file, capsys):
    assert main(["certify", "--in", roots_file]) == 0
    first = capsys.readouterr().out
    assert main(["certify", "--in", roots_file]) == 0
    assert capsys.readouterr().out == first
