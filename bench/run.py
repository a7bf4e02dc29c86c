"""Benchmark of harmonic-codes: seeded workloads, checked outputs, traced layers.

Run from the repository root:

    python3 bench/run.py --workload e8_certify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

A closed loop in one process: one op is in flight at a time, and CLI
children run one at a time.  `--trace 0` measures the end-to-end metrics;
`--trace 1` is the separate traced pass that gives the per-layer metrics.
Every output is checked against a witness computed outside the timed
region.  The lines printed first name each metric with its unit; the last
line is one JSON object with the keys correct, attempted, failed and
metrics.  A record of the run (environment, input sha256, load average,
samples, errors) and, when traced, the spans are written to .bench_out/.
See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import inputs
from calibration import REFERENCE_S, Series
from tracing import Tracer, no_span

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

PROBE_REPEATS = 9
# CLI children run for --seconds after the in-process window, at least this often.
CLI_MIN_RUNS = 3
TAIL_BEYOND = 10
MAX_ERROR_RECORDS = 20

END_TO_END_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "cli_wall_ms_p50": "ms",
    "cli_peak_rss_mib": "MiB",
    "setup_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HARMONIC_CODES_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], stdin_text: str = "") -> tuple[int, str, float, int]:
    """Run one child to completion: (exit code, stdout, wall s, peak RSS KiB).

    Peak RSS comes from os.wait4 for this child alone; RUSAGE_CHILDREN would
    give the maximum over every child waited for so far.
    """
    OUT.mkdir(exist_ok=True)
    stdin_path, stdout_path = OUT / f"child-{os.getpid()}.stdin", OUT / f"child-{os.getpid()}.stdout"
    stdin_path.write_text(stdin_text, encoding="utf-8")
    try:
        with open(stdin_path, "rb") as fin, open(stdout_path, "wb") as fout:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=fin, stdout=fout, stderr=subprocess.DEVNULL,
                                    env=child_env(), cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, stdout_path.read_text(encoding="utf-8"), wall, usage.ru_maxrss
    finally:
        stdin_path.unlink(missing_ok=True)
        stdout_path.unlink(missing_ok=True)


def child_kernel_s(min_s: float) -> float:
    """Calibration kernel time measured in a child process.

    Children are scheduled on another CPU than this process (with 2 CPUs, on
    the idle one), and the two CPUs can be contended differently.
    """
    rc, out, _, _ = run_child([sys.executable, str(BENCH / "calibration.py"), repr(min_s)])
    if rc != 0:
        raise RuntimeError(f"calibration child exited {rc}")
    return float(out)


def probe(cmd: list[str], repeats: int = PROBE_REPEATS) -> Series:
    """`repeats` timed runs of cmd, after one untimed warm-up run."""
    def wall() -> float:
        rc, _, seconds, _ = run_child(cmd)
        if rc != 0:
            raise RuntimeError(f"probe {cmd} exited {rc}")
        return seconds

    wall()
    series = Series(child_kernel_s)
    for _ in range(repeats):
        series.add(wall())
    return series


class Ledger:
    """Checked outputs.  An output equal to one already checked gets its verdict."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[dict] = []
        self._verdicts: dict = {}

    def record(self, label: str, payload, check) -> bool:
        self.attempted += 1
        if payload not in self._verdicts:
            self._verdicts[payload] = check()
        return self._tally(label, self._verdicts[payload])

    def fail(self, label: str, message: str) -> bool:
        self.attempted += 1
        return self._tally(label, [message])

    def _tally(self, label: str, errors: list[str]) -> bool:
        if errors:
            self.failed += 1
            if len(self.errors) < MAX_ERROR_RECORDS:
                self.errors.append({"op": label, "errors": errors})
        return not errors


def run_op(w, state, ledger: Ledger, label: str, span) -> tuple[bool, float]:
    """One op, as span "op", and its check, which runs after the timed call."""
    start = time.perf_counter()
    try:
        with span("op"):
            output = w.op(state, span)
    except Exception as exc:  # a failing op is counted, not fatal
        return ledger.fail(label, f"{type(exc).__name__}: {exc}"), time.perf_counter() - start
    elapsed = time.perf_counter() - start
    return ledger.record(label, output, lambda: w.check(state, output)), elapsed


def cli_op(w, state, ledger: Ledger, label: str) -> tuple[float, int]:
    """The workload's CLI op: its children in turn; (summed wall s, peak RSS KiB)."""
    results, wall, peak = [], 0.0, 0
    for argv, text in w.cli_steps(state):
        rc, out, t, rss = run_child([sys.executable, "-m", "harmonic_codes", *argv], text)
        results.append((rc, out))
        wall += t
        peak = max(peak, rss)
    payload = tuple(results)
    ledger.record(label, payload, lambda: w.check_cli(state, payload))
    return wall, peak


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its label.

    Below 2 * TAIL_BEYOND samples no percentile at or above the median has
    that many beyond it, so the maximum is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], f"max of {n} samples (fewer than {2 * TAIL_BEYOND})"
    index = n - TAIL_BEYOND - 1
    return xs[index], f"p{100 * (index + 1) / n:.1f} of {n} samples, {TAIL_BEYOND} beyond"


def untraced_run(w, seed: int, seconds: float, ledger: Ledger, record: dict) -> dict:
    setup = probe([sys.executable, str(BENCH / "probe.py"), w.name, str(seed)])
    state = w.prepare(seed, no_span)
    record["inputs_sha256"] = input_hashes(state)
    run_op(w, state, ledger, "warm-up op", no_span)

    ops, verified = Series(), 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        ok, elapsed = run_op(w, state, ledger, "op", no_span)
        ops.add(elapsed)
        verified += ok

    cli_op(w, state, ledger, "cli warm-up")
    cli, peaks = Series(child_kernel_s), []
    start = time.perf_counter()
    while len(cli.walls) < CLI_MIN_RUNS or time.perf_counter() - start < seconds:
        wall, peak = cli_op(w, state, ledger, "cli")
        cli.add(wall)
        peaks.append(peak)

    op_s = ops.scaled()
    tail_s, tail_label = tail(op_s)
    record["samples"] = {"op": ops.record(), "cli": cli.record(), "cli_peak_rss_kib": peaks, "setup": setup.record()}
    record["notes"] = {
        "op_ms_tail": tail_label,
        "ops_per_s": f"{verified} verified ops in {sum(op_s):.3f} s of op time at reference speed",
        "raw wall": (f"op_ms_p50 {statistics.median(ops.walls) * 1e3:.4f} ms, cli_wall_ms_p50 "
                     f"{statistics.median(cli.walls) * 1e3:.4f} ms, setup_s {statistics.median(setup.walls):.4f} s"),
    }
    return {
        "op_ms_p50": statistics.median(op_s) * 1e3,
        "op_ms_tail": tail_s * 1e3,
        "ops_per_s": verified / sum(op_s),
        "cli_wall_ms_p50": statistics.median(cli.scaled()) * 1e3,
        "cli_peak_rss_mib": statistics.median(peaks) / 1024,
        "setup_s": statistics.median(setup.scaled()),
    }


def traced_run(w, seed: int, seconds: float, ledger: Ledger, record: dict) -> dict:
    """Per-layer metrics: spans around calls into each module, shims on the
    module attributes that public functions call, tracemalloc in a pass of
    its own, and in-process `cli.main`."""
    # Imported here: the package is importable once main() has put src on sys.path.
    from harmonic_codes import analyzer, cli, codes, embedding
    from workloads import T_MAX, Certify, Export

    interpreter = statistics.median(probe([sys.executable, "-c", "pass"]).scaled())
    imported = statistics.median(probe([sys.executable, "-c", "import harmonic_codes.cli"]).scaled())

    tracer = Tracer()
    tracer.op_id = "setup"
    state = w.prepare(seed, tracer.span)
    record["inputs_sha256"] = input_hashes(state)
    run_op(w, state, ledger, "warm-up op", no_span)

    # Untraced and traced ops alternate, so the overhead compares like with like.
    # Shims reach the calls that public functions make internally.
    shims = [
        (embedding, "select_antipodal_representatives", "lattice.select_reps", False),
        (embedding, "embed_degree2", "embedding.embed_degree2", False),
        (codes, "gegenbauer", "harmonics.gegenbauer", True),
        (analyzer, "gegenbauer", "harmonics.gegenbauer", True),
    ]
    traced_ops, window = [], Series()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced_ops:
        if len(window.walls) % 2 == 0:
            window.add(run_op(w, state, ledger, "op", no_span)[1])
            continue
        tracer.op_id = len(traced_ops)
        traced_ops.append(tracer.op_id)
        with tracer.shims(shims):
            window.add(run_op(w, state, ledger, "traced op", tracer.span)[1])
    # Ops alternate untraced, traced: each is scaled by its own calibrations.
    # The layer times get one factor for the whole run; shares do not depend on it.
    per_op = window.scaled()
    untraced_ms = statistics.median(per_op[0::2]) * 1e3
    traced_ms = statistics.median(per_op[1::2]) * 1e3
    scale = REFERENCE_S / statistics.median(window.calibrations)

    build_peak = certify_peak = distinct_values = 0
    if "code" in state:
        tracemalloc.start()
        try:
            built = embedding.build_code(state["code"])
            build_peak = tracemalloc.get_traced_memory()[1]
            if isinstance(w, Certify):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                codes.certify(built, t_max=T_MAX)
                certify_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        if isinstance(w, Certify):
            tracer.op_id = "parts"
            distinct_values = w.parts(built, tracer.span)

    # In-process `cli.main` over the same work as one op.
    main_s, results = 0.0, []
    for argv, text in w.cli_steps(state, whole_batch=True):
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        finally:
            main_s += time.perf_counter() - t0
            out = sys.stdout.getvalue()
            sys.stdin, sys.stdout = saved
        results.append((rc, out))
    payload = tuple(results)
    ledger.record("cli.main", payload, lambda: w.check_cli(state, payload))

    table = tracer.per_op()
    record["self_ms"] = {
        name: scale * statistics.median(table[op][name]["self_ms"] for op in table if name in table[op])
        for name in sorted({name for names in table.values() for name in names})
    }
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{w.name}-seed{seed}-spans.jsonl"
    tracer.write(spans_path)
    record["spans_file"] = str(spans_path.relative_to(ROOT))

    def layer(name: str, field: str = "ms") -> float:
        values = [table[op][name][field] for op in table if name in table[op]]
        return statistics.median(values) if values else 0

    op_ms = layer("op")
    certify_ms = layer("codes.certify")
    parts = ["codes.gram_view", "codes.coherence", "codes.spectrum", "codes.frame", "codes.design", "codes.bound"]
    calls = layer("harmonics.gegenbauer", "calls")
    points = len(state["code"]) if "code" in state else 0
    export_bytes = sum(len(t.encode()) for _, t in results) if isinstance(w, Export) else 0
    metrics = {
        "lattice.parse_ms": (layer("lattice.parse"), "ms"),
        "lattice.select_reps_ms": (layer("lattice.select_reps"), "ms"),
        "lattice.points": (points, "count"),
        "lattice.rep_pairs": ((points // 2) * (points // 2 - 1) // 2, "count"),
        "embedding.build_code_ms": (layer("embedding.build_code"), "ms"),
        "embedding.embed_degree2_ms": (layer("embedding.embed_degree2"), "ms"),
        "embedding.build_rest_ms": (layer("embedding.build_code", "self_ms"), "ms"),
        "embedding.gram_text_ms": (layer("embedding.gram_text"), "ms"),
        "embedding.float_text_ms": (layer("embedding.float_text"), "ms"),
        "embedding.export_bytes": (export_bytes, "B"),
        "embedding.build_alloc_peak_mib": (build_peak / 2**20, "MiB"),
        "embedding.build_op_share": (layer("embedding.build_code") / op_ms, "ratio"),
        "codes.certify_ms": (certify_ms, "ms"),
        "codes.gram_view_ms": (layer("codes.gram_view"), "ms"),
        "codes.coherence_ms": (layer("codes.coherence"), "ms"),
        "codes.spectrum_ms": (layer("codes.spectrum"), "ms"),
        "codes.frame_ms": (layer("codes.frame"), "ms"),
        "codes.design_ms": (layer("codes.design"), "ms"),
        "codes.bound_ms": (layer("codes.bound"), "ms"),
        "codes.report_json_ms": (layer("codes.report_json"), "ms"),
        "codes.parts_ratio": (sum(layer(p) for p in parts) / certify_ms if certify_ms else 0, "ratio"),
        "codes.certify_alloc_peak_mib": (certify_peak / 2**20, "MiB"),
        "codes.distinct_values": (distinct_values, "count"),
        "codes.op_share": (certify_ms / op_ms, "ratio"),
        "harmonics.gegenbauer_ms": (layer("harmonics.gegenbauer"), "ms"),
        "harmonics.gegenbauer_calls": (calls, "count"),
        "harmonics.gegenbauer_distinct": (layer("harmonics.gegenbauer", "distinct"), "count"),
        "harmonics.gegenbauer_useful_ratio": (layer("harmonics.gegenbauer", "distinct") / calls if calls else 0, "ratio"),
        "harmonics.gegenbauer_op_share": (layer("harmonics.gegenbauer") / op_ms, "ratio"),
        "analyzer.scan_ms": (layer("analyzer.scan"), "ms"),
        "analyzer.candidate_ms": (layer("analyzer.candidate"), "ms"),
        "analyzer.json_ms": (layer("analyzer.json"), "ms"),
        "cli.main_ms": (main_s * 1e3, "ms"),
    }
    metrics = {name: (value * scale if unit == "ms" else value, unit) for name, (value, unit) in metrics.items()}
    metrics.update({
        "cli.interpreter_ms": (interpreter * 1e3, "ms"),
        "cli.import_ms": ((imported - interpreter) * 1e3, "ms"),
        "cli.overhead_ms": (metrics["cli.main_ms"][0] - untraced_ms, "ms"),
        "trace.op_ms": (traced_ms, "ms"),
        "trace.untraced_op_ms": (untraced_ms, "ms"),
        "trace.overhead_ms": (traced_ms - untraced_ms, "ms"),
        "trace.spans_per_op": (sum(isinstance(span[4], int) for span in tracer.spans) / len(traced_ops), "count"),
    })
    record["samples"] = {"window": window.record(), "untraced_ops": len(window.walls) - len(traced_ops), "traced_ops": len(traced_ops)}
    record["notes"] = {"scale": f"span and cli ms are wall ms x {scale:.4f}, the run's reference-speed factor"}
    return metrics


def input_hashes(state: dict) -> dict:
    return {name: inputs.sha256(text) for name, text in state["texts"].items()}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(args) -> int:
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    ledger = Ledger()
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "loadavg_before": os.getloadavg()}
    if args.trace:
        metrics = traced_run(w, args.seed, args.seconds, ledger, record)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in untraced_run(w, args.seed, args.seconds, ledger, record).items()}
    record["loadavg_after"] = os.getloadavg()
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["attempted"], record["failed"], record["errors"] = ledger.attempted, ledger.failed, ledger.errors
    record_path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    OUT.mkdir(exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  python {env['python']}  "
          f"nproc {env['nproc']}  cpu {env['cpu_model']}  commit {env['commit']}")
    print(f"loadavg before {record['loadavg_before']}  after {record['loadavg_after']}")
    digest = inputs.sha256(json.dumps(record["inputs_sha256"], sort_keys=True))
    print(f"inputs {len(record['inputs_sha256'])} texts, combined sha256 {digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    for name, note in record.get("notes", {}).items():
        print(f"  {name}: {note}")
    for name, self_ms in record.get("self_ms", {}).items():
        print(f"  self time of {name:30s} {self_ms:14.4f} ms")
    print(f"  fail_ratio {ledger.failed / ledger.attempted:.4f} ({ledger.failed} of {ledger.attempted} checked outputs)")
    for failure in ledger.errors:
        print(f"  FAILED {failure['op']}: {'; '.join(failure['errors'])}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; one summary line at the end."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["e8_certify", "e8_export", "d16_certify", "spectrum_scan", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "harmonic_codes" / "__init__.py").is_file():
        print(f"bench: the package source {SRC / 'harmonic_codes'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
