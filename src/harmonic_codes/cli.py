"""Command-line pipeline: generate, build, certify, bound, design, scan, export.

Exit protocol: 0 on success, 1 on domain or certification failures, 2 on
I/O failures, 64 on usage errors.  `certify` exits 0 only when every
certificate holds, so CI can treat it as a theorem check.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from . import __version__
from .analyzer import (
    candidate_from_scan,
    candidate_to_json,
    constant_modulus_scan,
    read_spectrum_file,
    scan_to_json,
)
from .codes import (
    certify,
    design_strength,
    format_bound,
    quadratic_bound,
    report_to_json,
)
from .embedding import build_code, float_code_to_text, gram_to_text
from .exact import parse_rational
from .harmonics import gegenbauer, harmonic_dimension
from .lattice import code_from_text, code_to_text, generate_e8_roots

THREADS_ENV = "HARMONIC_CODES_THREADS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(64)


@contextmanager
def _text_in(path: str):
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8") as f:
            yield f


@contextmanager
def _text_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            yield f


def _read_code(path: str):
    with _text_in(path) as f:
        return code_from_text(f.read())


def _check_threads(args) -> None:
    """--threads and its environment variable are accepted for compatibility
    and ignored; a malformed environment value is still an error."""
    env = os.environ.get(THREADS_ENV)
    if args.threads is None and env is not None:
        try:
            int(env)
        except ValueError as exc:
            raise ValueError(f"bad {THREADS_ENV} value {env!r}") from exc


def _built(args):
    _check_threads(args)
    return build_code(_read_code(args.infile))


def cmd_roots(args) -> int:
    with _text_out(args.out) as f:
        f.write(code_to_text(generate_e8_roots()))
    return 0


def cmd_dim(args) -> int:
    print(harmonic_dimension(args.d, args.k))
    return 0


def cmd_gegenbauer(args) -> int:
    poly = gegenbauer(args.d, args.k)
    if args.at is not None:
        print(poly.evaluate(parse_rational(args.at)))
    else:
        print(" ".join(str(c) for c in poly.coeffs))
    return 0


def cmd_build(args) -> int:
    code = _built(args)
    if args.certify:
        return _print_certificate(code, args.t_max)
    values = sorted(code.histogram)
    print(f"n_points {len(code)}")
    print(f"ambient_harmonic_dim {code.ambient_harmonic_dim}")
    print("gram_values " + " ".join(str(v) for v in values))
    return 0


def _print_certificate(code, t_max: int) -> int:
    report = certify(code, t_max=t_max)
    sys.stdout.write(report_to_json(report))
    passed = report.optimal_antipodal and report.frame_sum >= report.frame_bound
    return 0 if passed else 1


def cmd_certify(args) -> int:
    return _print_certificate(_built(args), args.t_max)


def cmd_bound(args) -> int:
    qb = quadratic_bound(args.n, args.dim)
    print(format_bound(qb.value, qb.radicand))
    return 0


def cmd_design(args) -> int:
    code = _built(args)
    check = design_strength(code, code.ambient_harmonic_dim - 1, args.t_max)
    print(f"design_strength {check.strength}")
    for k, residual in enumerate(check.residuals, start=1):
        print(f"residual k={k} {residual}")
    return 0


def cmd_scan(args) -> int:
    with _text_in(args.infile) as f:
        values = read_spectrum_file(f)
    k_max = args.k_max if args.k_max is not None else args.k
    if k_max < args.k:
        raise ValueError("--k-max must be >= -k")
    ks = range(args.k, k_max + 1)
    lines = []
    for result in constant_modulus_scan(values, args.d, ks):
        lines.append(scan_to_json(result))
        if args.n_points is not None:
            lines.append(candidate_to_json(candidate_from_scan(result, args.n_points)))
    with _text_out(args.out) as out:
        out.write("".join(lines))
    return 0


def cmd_export(args) -> int:
    code = _built(args)
    text = gram_to_text(code.gram) if args.exact else float_code_to_text(code)
    with _text_out(args.out) as f:
        f.write(text)
    return 0


def _add_input_options(sub) -> None:
    sub.add_argument("--in", dest="infile", required=True,
                     help="lattice code file, or - for stdin")
    sub.add_argument("--threads", type=int, default=None,
                     help=f"accepted for compatibility and ignored (as is ${THREADS_ENV})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="harmonic-codes", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("roots", help="generate the 240 scaled E8 roots")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("dim", help="dimension of the degree-k harmonic space on S^d")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("gegenbauer", help="normalized Gegenbauer coefficients or value")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--at", default=None, metavar="T",
                   help="evaluate at rational T instead of printing coefficients")
    p.set_defaults(func=cmd_gegenbauer)

    p = sub.add_parser("build", help="embed a code and summarize its gram")
    _add_input_options(p)
    p.add_argument("--certify", action="store_true", help="print the full certificate")
    p.add_argument("--t-max", type=int, default=3)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("certify", help="build and print the full certificate")
    _add_input_options(p)
    p.add_argument("--t-max", type=int, default=3)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bound", help="coherence lower bound for antipodal codes")
    p.add_argument("-n", type=int, required=True, help="number of points")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("design", help="design strength of the embedded code")
    _add_input_options(p)
    p.add_argument("--t-max", type=int, default=3)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("scan", help="Gegenbauer image scan of a spectrum file")
    p.add_argument("--in", dest="infile", required=True,
                   help="spectrum file (one p/q per line), or - for stdin")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--n-points", type=int, default=None,
                   help="also report candidate code parameters for this size")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("export", help="write the exact gram or float coordinates")
    _add_input_options(p)
    fmt = p.add_mutually_exclusive_group(required=True)
    fmt.add_argument("--exact", action="store_true", help="exact rational gram")
    fmt.add_argument("--float", action="store_true", help="flattened float coordinates")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"harmonic-codes: i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"harmonic-codes: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
