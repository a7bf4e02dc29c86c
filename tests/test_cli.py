import hashlib
import io
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_codes import analyzer
from harmonic_codes.cli import build_parser, main
from harmonic_codes.codes import (
    GramView,
    certify,
    design_strength,
    frame_bound_check,
    max_coherence,
    report_to_json,
)
from harmonic_codes.embedding import build_code, gram_from_text, gram_to_text
from harmonic_codes.harmonics import _family_coefficients, gegenbauer_rows
from harmonic_codes.lattice import (
    LatticeCode,
    code_from_text,
    code_to_text,
    generate_e8_roots,
    scaled_dot,
    select_antipodal_representatives,
)
from test_embedding import EXACT_GRAM_SHA256, FLOAT_EXPORT_SHA256, WIDE_FIELD, _dn_roots, _gram_text_witness

README_TEXT = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# The basis of R^3 and its negatives: antipodal, but short of the bound
CROSS_POLYTOPE = """\
3 6 1 1
1 0 0
0 1 0
0 0 1
-1 0 0
0 -1 0
0 0 -1
"""

# The square on the circle: the one built code whose non-antipodal pairs carry
# -1 (g2(0) = -1 at m = 2), next to +1 from the repeated image
SQUARE = """\
2 4 1 1
1 0
0 1
-1 0
0 -1
"""

# Two points with no antipodes: every subcommand that builds a code rejects it
NON_ANTIPODAL = "2 2 1 1\n1 0\n0 1\n"

TWO_POINT = """\
2 2 1 1
1 0
-1 0
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


def _e8_scaled_text():
    # every coordinate times 8: norm 512 needs a 2-byte field in the pair count
    e8 = generate_e8_roots()
    return code_to_text(LatticeCode(8, 16, 512, tuple(tuple(8 * c for c in p) for p in e8.points)))


# The named stdin inputs a row can use; any other stdin is the text itself
INPUTS = {
    "e8": code_to_text(generate_e8_roots()),
    "e8-scaled": _e8_scaled_text(),
    "d16": code_to_text(_dn_roots(16)),
    "d4": code_to_text(_dn_roots(4)),
    "wide-field": code_to_text(WIDE_FIELD),
    "cross-polytope": CROSS_POLYTOPE,
    "square": SQUARE,
    "two-point": TWO_POINT,
}
SUBCOMMANDS = {"roots", "dim", "gegenbauer", "build", "certify", "bound", "design", "scan", "export"}

# sha256 of stdout for a k = 1..12 scan of the E8 spectrum with candidates, and
# for E8's design residuals up to t = 12: any change to their bytes fails
PINNED_SCAN_SHA256 = "4355d43f766a1597db922c2807f802eb56dc91b83a52e954997db8596dca2486"
E8_DESIGN_T12_SHA256 = "296318f5464fb4e209b00925d74fb1cde7a5f571e7f57d83f3937e75fb6f9bce"
PINNED_SCAN = ["scan", "--in", "-", "-d", "7", "-k", "1", "--k-max", "12", "--n-points", "240"]
# the same sweep on S^4 over an unsorted spectrum with a repeated value (1/5 =
# 2/10): only k = 2 has one modulus, and five of the bounds are irrational
MIXED_SPECTRUM = "-3/5\n1/5\n2/10\n-1/5\n"
MIXED_SCAN_SHA256 = "a8b9c97fbc03b9bd2b5f544035b38fda7ac61e3af16ee259c1867bf924ebbdab"
# sha256 of the certify JSON for E8 (exit 0), and for the 3-D cross-polytope and
# the square (exit 1)
E8_CERTIFY_SHA256 = "a9484497a43dc8831745cba3bb1c7415b90cd026a8738cfdd20f68636fcb1fc6"
CROSS_POLYTOPE_CERTIFY_SHA256 = "10372ec916ef9bf865cd1e8d5c5f693d12d364dd70978b26b3648457434e2e34"
SQUARE_CERTIFY_SHA256 = "a9b9554a0216afc5f087ea3d93c5e413c16abb70ce66107729d9266143067543"
# and for D16 (exit 1, the irrational bound sqrt(7/2151)): the certificate's
# false and sqrt(...) tokens
D16_CERTIFY_SHA256 = "dd154761aba322afd0687e51bf7642bebea8845ee4442a0c3849970865b976e7"
# sha256 of the 240 scaled E8 roots as `roots` writes them
E8_ROOTS_SHA256 = "c3b35d47ab7cde21729819fb927fb318fdd42dfc53b300f77b6002289c02d983"
# sha256 of the D4 roots' exact Gram: g2(1/2) = 0 at m = 4, so both blocks hold
# the token 0, with no sign
D4_EXACT_GRAM_SHA256 = "d89f97febdf55afe8556bcc9411b01ab2e4b72ccf8a8534d502444fbdbf75a23"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def roots_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "e8.code"
    path.write_text(INPUTS["e8"], encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def basis_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "basis.code"
    path.write_text(CROSS_POLYTOPE, encoding="utf-8")
    return str(path)


class Row(NamedTuple):
    """One CLI fact: `harmonic-codes <argv>` on `stdin` exits with `status`.

    With `err` None stderr stays empty and stdout is `out`: the exact text,
    or a predicate on it.  Only `certify` may do so with a nonzero status: its
    exit 1 is a verdict, with the JSON on stdout.  Otherwise the run is an
    error, stdout stays empty and `err` is the message: the one stderr line
    after `harmonic-codes: error:` (exit 1) or `harmonic-codes: i/o error:`
    (exit 2), or, for a usage error (exit 64), the last line, after the
    usage of the subcommand that owns the bad argument.
    """

    argv: str
    stdin: str = ""
    status: int = 0
    out: str | Callable[[str], bool] = ""
    err: str | None = None


def _sha256_is(digest):
    return lambda out: _sha256(out) == digest


def _json_has(**fields):
    return lambda out: {key: json.loads(out)[key] for key in fields} == fields


def _witness_gram(name):
    """The exact Gram of a named input by a double loop over the representatives'
    scaled dots, mapped through g2(t) = (m t^2 - 1)/(m - 1) and signed by block
    (point i + N is the image of representative i negated): the packed Gram's witness."""
    reps = select_antipodal_representatives(code_from_text(INPUTS[name]))
    m, n = reps.ambient_dim, reps.norm_sq_scaled
    signed = [(s, p) for s in (1, -1) for p in reps.points]
    return [
        [s * r * (m * Fraction(scaled_dot(p, q), n) ** 2 - 1) / (m - 1) for r, q in signed]
        for s, p in signed
    ]


def _is_witness_export(name):
    return lambda out: out == _gram_text_witness(_witness_gram(name))


def _has_witness_spectrum(name):
    def check(out):
        gram = _witness_gram(name)
        counts = Counter(x for i, row in enumerate(gram) for j, x in enumerate(row) if i != j)
        return json.loads(out)["spectrum"] == {str(v): c for v, c in counts.items()}
    return check


def _circle_images(out):
    # on the circle P_k = T_k: the image of 1/2 is cos(k pi/3), that of 0 is cos(k pi/2)
    cos_third = ["1", "1/2", "-1/2", "-1", "-1/2", "1/2"]  # by k mod 6
    cos_half = ["1", "0", "-1", "0"]  # by k mod 4
    images = [(scan["k"], scan["image"]) for scan in map(json.loads, out.splitlines())]
    return images == [(k, {"1/2": cos_third[k % 6], "0": cos_half[k % 4]}) for k in range(1, 13)]


def _readme_rows():
    # README's command-line examples: a command that reads and writes no file
    # documents its stdout after the `#`, `roots --out` documents the header
    # line, and the one json block is `certify`'s output on the E8 roots
    rows = [
        Row(args, out=f"{out}\n")
        for args, out in re.findall(r"^harmonic-codes ([^#\n]+?) +# (.+)$", README_TEXT, re.M)
        if {"--in", "--out"}.isdisjoint(args.split())
    ]
    (header,) = re.findall(r'^harmonic-codes roots --out .*header "(.+)"$', README_TEXT, re.M)
    (block,) = re.findall(r"^```json\n(.*?)^```$", README_TEXT, re.M | re.S)
    return rows + [
        Row("roots", out=lambda out: out.split("\n", 1)[0] == header),
        Row("certify --in -", "e8", out=block),
        # scaling every coordinate keeps every inner product, so the certificate too
        Row("certify --in -", "e8-scaled", out=block),
    ]


ROWS = _readme_rows() + [
    Row("roots --out -", out=_sha256_is(E8_ROOTS_SHA256)),
    # the degree-2 image of the E8 spectrum is equiangular, and 240 such points meet the bound
    Row("scan --in - -d 7 -k 2 --n-points 240", "0\n1/2\n-1/2\n", out=(
        '{"d": 7, "k": 2, "harmonic_dim": 35, "image": {"-1/2": "1/7", "0": "-1/7", "1/2": "1/7"}, '
        '"constant_modulus": true, "modulus": "1/7"}\n'
        '{"ambient_dim": 35, "n_points": 240, "coherence": "1/7", "bound": "1/7", "constant_modulus": true}\n'
    )),
    # the E8 image is a spherical 3-design
    Row("design --in - --t-max 3", "e8", out="design_strength 3\nresidual k=1 0\nresidual k=2 0\nresidual k=3 0\n"),
    # but not a 4-design: the first nonzero residual is k = 4
    Row("design --in - --t-max 5", "e8", out=(
        "design_strength 3\nresidual k=1 0\nresidual k=2 0\nresidual k=3 0\n"
        "residual k=4 149760/343\nresidual k=5 0\n"
    )),
    # scaling keeps every rational entry, and int/int division is correctly
    # rounded, so both exports of e8-scaled (2-byte dot fields) equal E8's
    *(Row(f"export --{kind} --in -", name, out=_sha256_is(digest))
      for kind, digest in (("exact", EXACT_GRAM_SHA256), ("float", FLOAT_EXPORT_SHA256))
      for name in ("e8", "e8-scaled")),
    Row("export --exact --in -", "d4", out=_sha256_is(D4_EXACT_GRAM_SHA256)),
    # coprime coordinates of norm 130: a 2-byte dot field through export and certify
    Row("export --exact --in -", "wide-field", out=_is_witness_export("wide-field")),
    Row("certify --in -", "wide-field", 1, out=_has_witness_spectrum("wide-field")),
    Row("scan --in - -d 1 -k 1 --k-max 12", "1/2\n0\n", out=_circle_images),
    Row("scan --in - -d 4 -k 1 --k-max 12 --n-points 240", MIXED_SPECTRUM, out=_sha256_is(MIXED_SCAN_SHA256)),
    Row("gegenbauer -d 1 -k 12 --at 1/2", out="1\n"),  # T_12(1/2) = cos(4 pi)
    Row("bound -n 98 --dim 24", out="sqrt(25/1152)\n"),
    # D16's 480 roots: a 135-dimensional image short of its irrational bound
    Row("certify --in -", "d16", 1, out="""\
{
  "ambient_dim": 135,
  "n_points": 480,
  "coherence": "1/5",
  "spectrum": {
    "-1": 480,
    "-1/5": 26880,
    "-1/15": 87840,
    "1/15": 87840,
    "1/5": 26880
  },
  "bound": "sqrt(7/2151)",
  "frame_sum": "19456/5",
  "frame_bound": "5120/3",
  "design_strength": 1,
  "optimal_antipodal": false
}
"""),
    # the default --t-max spelled out writes the same bytes
    Row("certify --in - --t-max 3", "d16", 1, out=_sha256_is(D16_CERTIFY_SHA256)),
    Row("certify --in -", "cross-polytope", 1, _json_has(coherence="1/2", bound="0", optimal_antipodal=False)),
    # on the circle g2(0) = -1, so non-antipodal pairs carry -1 next to +1: coherence 1
    Row("certify --in -", "square", 1, _json_has(coherence="1", optimal_antipodal=False)),
    # certify's exit 1 on bad input is an error, not a verdict
    Row("certify --in -", NON_ANTIPODAL, 1, err="point (1, 0) has no antipode in the code"),
    Row("certify --in -", "two-point", 1, err="no admissible pair to take coherence over"),
    Row("build --in -", "", 1, err="empty code file"),
    Row("build --in -", "8 2 2 8\n1 1 1 1 1 1 1 1\n", 1, err="expected 2 points, found 1"),
    # int() would read 0_1 and +1 as 1
    Row("certify --in -", "2 2 1 1\n0_1 0\n0 +1\n", 1, err="non-integer coordinate"),
    Row("scan --in - -d 7 -k 2", "0\n1e5\n", 1, err="exponent notation is not accepted: '1e5'"),
    # rejected before Fraction would expand it to a thirty-million-digit integer
    Row("scan --in - -d 7 -k 2", "0\n1e29999999\n", 1, err="exponent notation is not accepted: '1e29999999'"),
    Row("bound -n 241 --dim 35", status=1, err="antipodal codes have an even number of points"),
    Row("bound -n 240 --dim 0", status=1, err="dimension must be positive"),
    Row("dim -d 0 -k 2", status=1, err="sphere dimension must be >= 1"),
    Row("gegenbauer -d 7 -k -1", status=1, err="degree must be >= 0"),
    Row("gegenbauer -d 7 -k 2 --at 1/0", status=1, err="bad rational token '1/0'"),
    # Fraction() would read the Arabic-Indic digit one as 1
    Row("gegenbauer -d 7 -k 2 --at \u0661/2", status=1, err="bad rational token '\u0661/2'"),
    Row("build --in /nonexistent/e8.code", status=2,
        err="[Errno 2] No such file or directory: '/nonexistent/e8.code'"),
    Row("roots --out /nonexistent/dir/e8.code", status=2,
        err="[Errno 2] No such file or directory: '/nonexistent/dir/e8.code'"),
    Row("build --in - --threads 3", status=64, err="unrecognized arguments: --threads 3"),
    Row("roots extra", status=64, err="unrecognized arguments: extra"),
    Row("certify --in - --threads x", status=64, err="argument --threads: invalid int value: 'x'"),
    Row("export --in -", status=64, err="one of the arguments --exact --float is required"),
    Row("dim -d 7", status=64, err="the following arguments are required: -k"),
    Row("dim", status=64, err="the following arguments are required: -d, -k"),
    Row("dim -d 7 -k", status=64, err="argument -k: expected one argument"),
    Row("export --in - --exact --float", status=64, err="argument --float: not allowed with argument --exact"),
    # a value follows its flag, or its =
    Row("dim -d=7 -k=2", out="35\n"),
    # the next argument is the value unless it is one of the subcommand's flags:
    # g2(-1/2) = (8/4 - 1)/7
    Row("gegenbauer -d 7 -k 2 --at -1/2", out="1/7\n"),
    # a flag is spelled in full: there are no prefix abbreviations
    Row("scan --in - -d 7 -k 1 --k-m 3", status=64, err="unrecognized arguments: --k-m 3"),
    Row("--version", out="1.0.0\n"),
]


def _row_id(row):
    stdin = row.stdin if row.stdin in INPUTS else " ".join(row.stdin.split())
    return f"{row.argv} < {stdin}" if stdin else row.argv


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_row(row, capsys, monkeypatch):
    argv = row.argv.split()
    monkeypatch.setattr("sys.stdin", io.StringIO(INPUTS.get(row.stdin, row.stdin)))
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    assert status == row.status
    if row.err is None:
        assert status == 0 or argv[0] == "certify"
        assert err == ""
        assert row.out(out) if callable(row.out) else out == row.out
    elif status == 64:
        prog = f"harmonic-codes {argv[0]}" if argv[0] in SUBCOMMANDS else "harmonic-codes"
        assert out == ""
        assert err.startswith(f"usage: {prog} [-h]")
        assert err.splitlines()[-1] == f"{prog}: error: {row.err}"
    else:
        assert out == ""
        assert err == f"harmonic-codes: {'error' if status == 1 else 'i/o error'}: {row.err}\n"


# One run of every subcommand; main writes what the subcommand returns
EVERY_SUBCOMMAND = [
    ("roots", ""),
    ("dim -d 7 -k 2", ""),
    ("gegenbauer -d 7 -k 2", ""),
    ("gegenbauer -d 7 -k 2 --at 1/2", ""),
    ("build --in -", "e8"),
    ("certify --in -", "e8"),
    ("certify --in -", "cross-polytope"),
    ("bound -n 240 --dim 35", ""),
    ("design --in - --t-max 5", "e8"),
    ("scan --in - -d 7 -k 1 --k-max 3 --n-points 240", "0\n1/2\n-1/2\n"),
    ("export --exact --in -", "square"),
    ("export --float --in -", "square"),
]


@pytest.mark.parametrize(
    "argv, stdin", EVERY_SUBCOMMAND, ids=[_row_id(Row(*pair)) for pair in EVERY_SUBCOMMAND]
)
def test_subcommands_return_their_output(argv, stdin, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(INPUTS.get(stdin, stdin)))
    args = build_parser().parse_args(argv.split())
    status, text = args.func(args)
    assert tuple(capsys.readouterr()) == ("", "")
    assert text.endswith("\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(INPUTS.get(stdin, stdin)))
    assert main(argv.split()) == status
    assert tuple(capsys.readouterr()) == (text, "")


@pytest.mark.parametrize(
    "argv, stdin",
    [
        ("roots", ""),
        ("scan --in - -d 7 -k 1 --k-max 12 --n-points 240", "0\n1/2\n-1/2\n"),
        ("export --exact --in -", "e8"),
        ("export --float --in -", "e8"),
    ],
    ids=["roots", "scan", "export-exact", "export-float"],
)
def test_every_out_destination_gets_the_same_bytes(argv, stdin, tmp_path, capsys, monkeypatch):
    path = tmp_path / "out.txt"
    outputs = []
    for out in ([], ["--out", "-"], ["--out", str(path)]):
        monkeypatch.setattr("sys.stdin", io.StringIO(INPUTS.get(stdin, stdin)))
        assert main(argv.split() + out) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out.encode("utf-8"))
    assert outputs[2] == b""  # a file written, stdout stays empty
    outputs[2] = path.read_bytes()
    assert outputs[0] == outputs[1] == outputs[2] != b""


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        ("scan --in - -d 7 -k 2 --n-points 3", "0\n", "antipodal codes have an even number of points"),
        ("export --exact --in -", NON_ANTIPODAL, "point (1, 0) has no antipode in the code"),
    ],
    ids=["scan-n-points-3", "export-non-antipodal"],
)
def test_failed_run_leaves_out_file_unchanged(argv, stdin, message, tmp_path, capsys, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_bytes(b"kept\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv.split() + ["--out", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"harmonic-codes: error: {message}\n"
    assert path.read_bytes() == b"kept\n"


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


def test_gegenbauer_coefficients(capsys):
    assert main(["gegenbauer", "-d", "1", "-k", "12"]) == 0
    assert capsys.readouterr().out == "1 0 -72 0 840 0 -3584 0 6912 0 -6144 0 2048\n"


def test_gegenbauer_evaluate(capsys):
    assert main(["gegenbauer", "-d", "34", "-k", "2", "--at", "1/7"]) == 0
    assert capsys.readouterr().out == "-1/119\n"


def test_gegenbauer_bad_point_exits_one(capsys):
    # the sphere, then the degree, are rejected before the point is parsed
    for args, message in [
        (["-d", "0", "-k", "2"], "sphere dimension must be >= 1"),
        (["-d", "7", "-k", "-1"], "degree must be >= 0"),
    ]:
        assert main(["gegenbauer", *args, "--at", "1/0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"harmonic-codes: error: {message}\n"
    assert main(["gegenbauer", "-d", "3", "-k", "2", "--at", "1e29999999"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # rejected before Fraction would expand it to a thirty-million-digit integer
    assert captured.err == (
        "harmonic-codes: error: exponent notation is not accepted: '1e29999999'\n"
    )


@pytest.mark.parametrize(
    "make_text, n, dim, values",
    [
        (lambda: code_to_text(generate_e8_roots()), 240, 35, "-1 -1/7 1/7 1"),
        # the one built code with an off-diagonal +1
        (lambda: SQUARE, 4, 2, "-1 1"),
        # its value table is only {-1: 2}; the 1 is the diagonal's
        (lambda: TWO_POINT, 2, 2, "-1 1"),
        (lambda: CROSS_POLYTOPE, 6, 5, "-1 -1/2 1/2 1"),
    ],
    ids=["e8", "square", "two-point", "cross-polytope-3"],
)
def test_build_summary(make_text, n, dim, values, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(make_text()))
    assert main(["build", "--in", "-"]) == 0
    assert capsys.readouterr().out == (
        f"n_points {n}\n"
        f"ambient_harmonic_dim {dim}\n"
        f"gram_values {values}\n"
    )


def test_build_certify_options_are_usage_errors(roots_file, capsys):
    # the certificate is `certify`'s alone: build takes no --certify or --t-max
    for option in (["--certify"], ["--t-max", "3"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["build", "--in", roots_file, *option])
        assert excinfo.value.code == 64, option
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(option)}" in captured.err


def test_readme_certificate_is_certify_output(e8_code, readme_certificate):
    assert report_to_json(certify(e8_code)) == readme_certificate


def test_certify_bytes_are_pinned(roots_file, basis_file, capsys, monkeypatch):
    for argv in (
        ["certify", "--in", roots_file],
        ["certify", "--in", roots_file, "--threads", "4"],
    ):
        assert main(argv) == 0
        assert _sha256(capsys.readouterr().out) == E8_CERTIFY_SHA256, argv
    assert main(["certify", "--in", basis_file]) == 1
    assert _sha256(capsys.readouterr().out) == CROSS_POLYTOPE_CERTIFY_SHA256
    monkeypatch.setattr("sys.stdin", io.StringIO(SQUARE))
    assert main(["certify", "--in", "-"]) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["coherence"] == "1"
    assert json.loads(out)["spectrum"] == {"-1": 8, "1": 4}
    assert _sha256(out) == SQUARE_CERTIFY_SHA256


@pytest.mark.parametrize(
    "make_text",
    [lambda: code_to_text(generate_e8_roots()), lambda: CROSS_POLYTOPE, lambda: code_to_text(_dn_roots(4))],
    ids=["e8", "cross-polytope-3", "d4-roots"],
)
def test_exit_code_is_the_report_verdict(make_text, capsys, monkeypatch):
    text = make_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    report = certify(build_code(code_from_text(text)))
    assert report.passed is (main(["certify", "--in", "-"]) == 0)


@pytest.mark.parametrize(
    "text, message",
    [
        (TWO_POINT, "no admissible pair to take coherence over"),
        (CROSS_POLYTOPE, "t_max must be at least 1"),
    ],
    ids=["two-point", "cross-polytope-3"],
)
def test_certify_reports_the_first_failing_fold(text, message, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["certify", "--in", "-", "--t-max", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"harmonic-codes: error: {message}\n"


def test_design(roots_file, capsys):
    assert main(["design", "--in", roots_file]) == 0
    assert capsys.readouterr().out == (
        "design_strength 3\n"
        "residual k=1 0\n"
        "residual k=2 0\n"
        "residual k=3 0\n"
    )


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


def test_design_two_point_code(capsys, monkeypatch):
    # every residual is n = 2 plus the one table term 2 P_k(-1) = 2 (-1)^k
    monkeypatch.setattr("sys.stdin", io.StringIO(TWO_POINT))
    assert main(["design", "--in", "-", "--t-max", "3"]) == 0
    assert capsys.readouterr().out == (
        "design_strength 1\n"
        "residual k=1 0\n"
        "residual k=2 4\n"
        "residual k=3 0\n"
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
    # the k = 1..12 sweep with its candidates, and the t = 12 design fold, each
    # run the many-point recurrence once, over all their values to the top
    # degree, and build no coefficients: the spy sits under gegenbauer() too
    runs, families = [], []

    def counted(d, nums, den, degrees):
        nums, degrees = list(nums), list(degrees)
        runs.append((d, sorted(Fraction(a, den) for a in nums), max(degrees)))
        return gegenbauer_rows(d, nums, den, degrees)

    def family(d, k_max):
        families.append((d, k_max))
        return _family_coefficients(d, k_max)

    monkeypatch.setattr("harmonic_codes.analyzer.gegenbauer_rows", counted)
    monkeypatch.setattr("harmonic_codes.codes.gegenbauer_rows", counted)
    monkeypatch.setattr("harmonic_codes.harmonics._family_coefficients", family)
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n1/2\n-1/2\n"))
    assert main(PINNED_SCAN) == 0
    assert runs == [(7, [Fraction(-1, 2), 0, Fraction(1, 2)], 12)]
    runs.clear()
    assert main(["design", "--in", roots_file, "--t-max", "12"]) == 0
    assert runs == [(34, [-1, Fraction(-1, 7), Fraction(1, 7)], 12)]
    assert families == []


def test_scan_builds_two_fractions_per_degree_and_hashes_none(capsys, monkeypatch):
    # the k = 1..12 sweep keeps each degree's integer row: per degree it builds
    # at most the modulus scan_to_json reports and the coherence
    # candidate_to_json reports, and hashes no Fraction; image_values still
    # gives Fractions in ascending key order on request
    built, hashed = [], []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

        def __hash__(self):
            hashed.append(self)
            return super().__hash__()

    monkeypatch.setattr("harmonic_codes.analyzer.Fraction", Counted)
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n1/2\n-1/2\n"))
    assert main(PINNED_SCAN) == 0
    assert _sha256(capsys.readouterr().out) == PINNED_SCAN_SHA256
    # plus the three spectrum values, rebuilt once per scan as they are not Counted
    assert len(built) <= 3 + 2 * 12
    assert hashed == []
    for result in analyzer.constant_modulus_scan([Fraction(1, 2), 0, Fraction(-1, 2)], 7, range(1, 13)):
        image = result.image_values
        assert list(image) == [Fraction(-1, 2), 0, Fraction(1, 2)]
        assert all(isinstance(g, Fraction) for g in image.values())


def test_scan_writers_build_no_fraction(capsys, monkeypatch):
    # both JSON writers format each degree's modulus and coherence from its
    # integer row: the k = 1..12 sweep builds only the three spectrum values,
    # rebuilt once per scan as they are not Counted, and hashes no Fraction
    built, hashed = [], []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

        def __hash__(self):
            hashed.append(self)
            return super().__hash__()

    monkeypatch.setattr("harmonic_codes.analyzer.Fraction", Counted)
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n1/2\n-1/2\n"))
    assert main(PINNED_SCAN) == 0
    assert _sha256(capsys.readouterr().out) == PINNED_SCAN_SHA256
    assert sorted(built) == [(-1, 2), (0, 1), (1, 2)]
    assert hashed == []


def test_scan_leech_spectrum(tmp_path, capsys):
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text("0\n1/4\n-1/4\n1/2\n-1/2\n", encoding="utf-8")
    assert main(["scan", "--in", str(spectrum), "-d", "23", "-k", "2"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["harmonic_dim"] == 299
    assert result["constant_modulus"] is False
    assert set(result["image"].values()) == {"-1/23", "1/46", "5/23"}


@pytest.mark.parametrize(
    "args, message",
    [
        (["-k", "2", "--n-points", "3"], "antipodal codes have an even number of points"),
        (["-k", "3", "--k-max", "2"], "--k-max must be >= -k"),
    ],
    ids=["n-points-3", "k-max-below-k"],
)
def test_scan_bad_n_points_writes_nothing(args, message, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
    assert main(["scan", "--in", "-", "-d", "7", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"harmonic-codes: error: {message}\n"


def test_export_exact_round_trip(roots_file, tmp_path, capsys, e8_code):
    out = tmp_path / "gram.txt"
    assert main(["export", "--in", roots_file, "--exact", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == gram_to_text(e8_code.gram)
    rows = gram_from_text(text)
    assert rows == e8_code.gram
    # read back through the checked Gram view, the export certifies again
    g = GramView(entries=rows)
    frame = frame_bound_check(g, 35)
    assert g.n == 240 and max_coherence(g) == Fraction(1, 7)
    assert frame.frame_sum == frame.frame_bound == Fraction(11520, 7)
    assert design_strength(g, 34, 3).strength == 3
    bad = ((rows[0][0], Fraction(1, 3)) + rows[0][2:],) + rows[1:]
    with pytest.raises(ValueError) as excinfo:
        GramView(entries=bad)
    assert str(excinfo.value) == "entries (0,1) and (1,0) differ"


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


def test_threads_flag_and_env(roots_file, basis_file, capsys, monkeypatch):
    # --threads is certify's alone, accepted and ignored
    assert main(["certify", "--in", basis_file]) == 1
    report = capsys.readouterr().out
    assert main(["certify", "--in", basis_file, "--threads", "3"]) == 1
    assert capsys.readouterr().out == report
    for argv in (["build"], ["design"], ["export", "--exact"]):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--in", roots_file, "--threads", "3"])
        assert excinfo.value.code == 64, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --threads 3" in captured.err
    assert main(["build", "--in", roots_file]) == 0
    base = capsys.readouterr().out
    for value in ("2", "lots"):
        monkeypatch.setenv("HARMONIC_CODES_THREADS", value)
        assert main(["build", "--in", roots_file]) == 0
        assert capsys.readouterr().out == base


def test_missing_input_file_exits_two(capsys, monkeypatch):
    assert main(["build", "--in", "/nonexistent/e8.code"]) == 2
    assert "i/o error" in capsys.readouterr().err
    # the output side: an --out in a missing directory is one i/o error line
    for text, args in (
        ("", ["roots"]),
        ("0\n1/2\n-1/2\n", ["scan", "--in", "-", "-d", "7", "-k", "2"]),
        (SQUARE, ["export", "--exact", "--in", "-"]),
    ):
        out = f"/nonexistent/dir/{args[0]}.txt"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(args + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("harmonic-codes: i/o error: ")
        assert out in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("8 0 2 8\n", "code has no points to embed"),
        ("1 2 1 1\n1\n-1\n", "ambient dimension must be at least 2"),
        ("0 0 1 1\n", "dimensions, scale and norm must be positive"),
        ("8 x 2 8\n", "bad header '8 x 2 8'"),
    ],
    ids=["no-points", "one-dimensional", "zero-dimension", "bad-header"],
)
def test_empty_code_exits_one(text, message, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["build", "--in", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"harmonic-codes: error: {message}\n"


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 64
    assert "error" in capsys.readouterr().err


def test_unrecognized_arguments_name_their_parser(capsys, monkeypatch):
    # leftovers after a subcommand are that subcommand's; before it, the root's
    for argv, prog, leftover in (
        (["build", "--in", "-", "--threads", "3"], "harmonic-codes build", "--threads 3"),
        (["--bogus", "build", "--in", "-"], "harmonic-codes", "--bogus"),
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(SQUARE))
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 64, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, *_, message = captured.err.splitlines()
        assert usage.startswith(f"usage: {prog} [-h]"), argv
        assert message == f"{prog}: error: unrecognized arguments: {leftover}", argv


# Each subcommand's flags, spelled out here rather than read from the parser
FLAGS = {
    "roots": ["--out"],
    "dim": ["-d", "-k"],
    "gegenbauer": ["-d", "-k", "--at"],
    "build": ["--in"],
    "certify": ["--in", "--t-max", "--threads"],
    "bound": ["-n", "--dim"],
    "design": ["--in", "--t-max"],
    "scan": ["--in", "-d", "-k", "--k-max", "--n-points", "--out"],
    "export": ["--in", "--exact", "--float", "--out"],
}


@pytest.mark.parametrize("subcommand", [None, *sorted(FLAGS)])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_zero(subcommand, flag, capsys):
    argv = [flag] if subcommand is None else [subcommand, flag]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    # the usage runs to the first blank line
    usage = out.split("\n\n", 1)[0]
    if subcommand is None:
        assert usage.startswith("usage: harmonic-codes [-h]")
        assert all(re.search(rf"\b{name}\b", out) for name in FLAGS)
    else:
        assert usage.startswith(f"usage: harmonic-codes {subcommand} [-h]")
        assert [f for f in FLAGS[subcommand] if not re.search(rf"(?<![-\w]){f}(?![-\w])", usage)] == []


# A run of each subcommand, as its (flag, value) and (flag,) words
_RUNS = {
    "roots": [],
    "dim": [("-d", "2"), ("-k", "3")],
    "gegenbauer": [("-d", "2"), ("-k", "3"), ("--at", "-1/2")],
    "build": [("--in", "-")],
    "certify": [("--in", "-"), ("--t-max", "2")],
    "bound": [("-n", "2"), ("--dim", "3")],
    "design": [("--in", "-"), ("--t-max", "3")],
    "scan": [("--in", "-"), ("-d", "2"), ("-k", "1"), ("--k-max", "3")],
    "export": [("--in", "-"), ("--float",)],
}
_ALL_FLAGS = sorted({"-h", "--help", "--version", *(flag for flags in FLAGS.values() for flag in flags)})
_VALUES = ["0", "1", "2", "3", "-1", "-", "-1/2", "1/2", "x", ""]
_JUNK = ["--", "--bogus", "extra", "-d7", "--k-m", "frobnicate"]


@st.composite
def _command_lines(draw):
    """A subcommand (or a root flag, or junk), most of its run's words, and up to two more:
    its flags or any other, bare or with a small value, or junk; in any order, and each
    (flag, value) word as two arguments or one, FLAG=VALUE."""
    head = draw(st.sampled_from([*FLAGS, *FLAGS, "-h", "--version", *_JUNK]))
    flag, value = st.sampled_from(FLAGS.get(head, []) + _ALL_FLAGS), st.sampled_from(_VALUES)
    extra = st.one_of(st.tuples(flag, value), st.tuples(flag), st.tuples(st.sampled_from(_VALUES + _JUNK)))
    words = [word for word in _RUNS.get(head, []) if draw(st.integers(0, 3))]
    argv = [head]
    for word in draw(st.permutations(words + draw(st.lists(extra, max_size=2)))):
        argv += ["=".join(word)] if len(word) == 2 and draw(st.booleans()) else word
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(argv=_command_lines(), stdin=st.sampled_from(["", SQUARE]))
def test_fuzzed_command_lines_keep_the_exit_protocol(argv, stdin, fuzz_dir):
    # every value is at most 3 and every code the square, or E8 read back from an
    # --out file, so each run takes milliseconds; --out writes under a scratch
    # directory; any exception but SystemExit, a traceback, fails the test
    cwd, stdin_before = os.getcwd(), sys.stdin
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(fuzz_dir)
        sys.stdin = io.StringIO(stdin)
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
    finally:
        sys.stdin = stdin_before
        os.chdir(cwd)
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2, 64)
    if status == 64:
        assert out == ""
        assert err.endswith("\n") and err.startswith("usage: harmonic-codes")
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
        assert re.match(r"harmonic-codes( [a-z]+)?: error: ", err.splitlines()[-1])
    elif err:
        # an error is one line and writes nothing to stdout
        assert out == "" and status in (1, 2) and err.count("\n") == 1
        assert err.startswith("harmonic-codes: error: " if status == 1 else "harmonic-codes: i/o error: ")
    else:
        # stdout, unless --out took it, carries the run's output; exit 1 is certify's verdict
        assert status == 0 or (status == 1 and "certify" in argv)


def test_repeated_runs_are_identical(roots_file, capsys):
    assert main(["certify", "--in", roots_file]) == 0
    first = capsys.readouterr().out
    assert main(["certify", "--in", roots_file]) == 0
    assert capsys.readouterr().out == first
