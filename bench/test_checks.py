"""Each benchmark check accepts the program's output and catches a corrupted one.

Run from the repository root: python3 -m pytest -q bench
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, no_span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def op_output(name):
    w = WORKLOADS[name]
    state = w.prepare(SEED, no_span)
    return w, state, w.op(state, no_span)


def test_inputs_are_reproducible_and_seeded():
    assert inputs.lattice_text("e8", SEED) == inputs.lattice_text("e8", SEED)
    assert inputs.lattice_text("e8", SEED) != inputs.lattice_text("e8", SEED + 1)
    assert inputs.spectra(SEED) == inputs.spectra(SEED)
    assert inputs.spectra(SEED) != inputs.spectra(SEED + 1)


def test_certificate_check_accepts_output_and_catches_corruption():
    for name, lattice in (("e8_certify", "e8"), ("d16_certify", "d16")):
        w, state, out = op_output(name)
        assert w.check(state, out) == []
        assert checks.check_certificate(out, lattice, checks.CERTIFY_EXIT[lattice]) == []
        assert checks.check_certificate(out.replace('"coherence": "1/', '"coherence": "2/'), lattice)


def test_wrong_exit_code_is_caught():
    w, state, out = op_output("e8_certify")
    assert w.check_cli(state, [(0, out)]) == []
    assert any("exit code" in e for e in w.check_cli(state, [(1, out)]))
    d16 = checks.PINNED_CERTIFICATES["d16"]
    assert any("exit code" in e for e in checks.check_certificate(d16, "d16", exit_code=0))


def test_flipped_gram_entry_is_caught():
    w, state, (gram, floats) = op_output("e8_export")
    assert w.check(state, (gram, floats)) == []
    lines = gram.splitlines(keepends=True)
    row = lines[6].split()
    row[8] = str(-Fraction(row[8]))
    lines[6] = " ".join(row) + "\n"
    errors = w.check(state, ("".join(lines), floats))
    assert any("gram[5][8]" in e for e in errors)


def test_perturbed_float_coordinate_is_caught():
    w, state, (gram, floats) = op_output("e8_export")
    lines = floats.splitlines(keepends=True)
    row = lines[1].split()
    i = max(range(len(row)), key=lambda i: abs(float(row[i])))
    row[i] = repr(float(row[i]) + 1e-9)
    lines[1] = " ".join(row) + "\n"
    assert any("float row 0" in e for e in w.check(state, (gram, "".join(lines))))


def test_perturbed_gegenbauer_value_is_caught():
    w, state, out = op_output("spectrum_scan")
    assert w.check(state, out) == []
    lines = out.splitlines(keepends=True)
    record = json.loads(lines[2])
    key = next(iter(record["image"]))
    record["image"][key] = str(Fraction(record["image"][key]) + Fraction(1, 10**9))
    lines[2] = json.dumps(record) + "\n"
    assert any("scan line 2" in e for e in w.check(state, "".join(lines)))
    first = "".join(out.splitlines(keepends=True)[:2 * inputs.SCAN_K_MAX])
    assert w.check_cli(state, [(0, first)]) == []
    assert any("exit code" in e for e in w.check_cli(state, [(1, first)]))


def test_gegenbauer_witness_matches_known_polynomials():
    # g_2 on S^7 is (8t^2 - 1)/7; g_3 on S^2 is the Legendre P_3 = (5t^3 - 3t)/2.
    assert sorted(checks.gegenbauer_witness(7, 2), key=lambda t: t[1]) == [(Fraction(-1, 7), 0), (Fraction(8, 7), 2)]
    assert sorted(checks.gegenbauer_witness(2, 3), key=lambda t: t[1]) == [(Fraction(-3, 2), 1), (Fraction(5, 2), 3)]
    assert checks.harmonic_dim_witness(7, 2) == 35


def test_failed_check_counts_and_is_reported():
    ledger = run.Ledger()
    assert ledger.record("op", "good", lambda: []) is True
    assert ledger.record("op", "bad", lambda: ["wrong"]) is False
    assert ledger.record("op", "bad", lambda: []) is False  # same output, same verdict
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.errors[0] == {"op": "op", "errors": ["wrong"]}


def test_tail_is_max_below_twenty_samples_then_a_percentile():
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0
    value, label = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and label.startswith("p75.0")


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.self_times()
    assert outer < tracer.spans[0][2] - tracer.spans[0][1]
    assert inner >= 0
