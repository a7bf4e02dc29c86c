"""Command-line pipeline: generate, build, certify, bound, design, scan, export.

Exit protocol: 0 on success, 1 on domain or certification failures, 2 on
I/O failures, 64 on usage errors.  `certify` exits 0 only when the coherence
meets the quadratic bound and the frame inequality holds, so CI can treat it
as a theorem check of optimality; design strength is reported, not judged.

Each subcommand imports the package modules it runs when it runs, so
parsing the command line loads none of them and `roots`, for one, loads
only the lattice module.
"""

from __future__ import annotations

import argparse
import io
import sys

from . import __version__


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        # the parser that leaves arguments over reports them, with its own usage
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(64)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)


def _built(args):
    from .embedding import build_code
    from .lattice import code_from_text

    return build_code(code_from_text(_read(args.infile)))


def cmd_roots(args) -> tuple[int, str]:
    from .lattice import code_to_text, generate_e8_roots

    return 0, code_to_text(generate_e8_roots())


def cmd_dim(args) -> tuple[int, str]:
    from .harmonics import harmonic_dimension

    return 0, f"{harmonic_dimension(args.d, args.k)}\n"


def cmd_gegenbauer(args) -> tuple[int, str]:
    from .harmonics import gegenbauer, gegenbauer_values, harmonic_dimension, parse_rational

    if args.at is None:
        return 0, " ".join(map(str, gegenbauer(args.d, args.k).coeffs)) + "\n"
    harmonic_dimension(args.d, args.k)  # d and k are rejected before the point is parsed
    (value,) = gegenbauer_values(args.d, parse_rational(args.at), [args.k])
    return 0, f"{value}\n"


def cmd_build(args) -> tuple[int, str]:
    code = _built(args)
    values = sorted(code.histogram.keys() | {1})
    return 0, (
        f"n_points {len(code)}\n"
        f"ambient_harmonic_dim {code.ambient_harmonic_dim}\n"
        f"gram_values {' '.join(map(str, values))}\n"
    )


def cmd_certify(args) -> tuple[int, str]:
    from .codes import certify, report_to_json

    report = certify(_built(args), t_max=args.t_max)
    return 0 if report.passed else 1, report_to_json(report)


def cmd_bound(args) -> tuple[int, str]:
    from .harmonics import format_bound, quadratic_bound

    return 0, format_bound(quadratic_bound(args.n, args.dim)) + "\n"


def cmd_design(args) -> tuple[int, str]:
    from .codes import design_strength

    code = _built(args)
    check = design_strength(code, code.ambient_harmonic_dim - 1, args.t_max)
    lines = [f"design_strength {check.strength}\n"]
    lines += [f"residual k={k} {r}\n" for k, r in enumerate(check.residuals, start=1)]
    return 0, "".join(lines)


def cmd_scan(args) -> tuple[int, str]:
    from . import analyzer

    values = analyzer.read_spectrum_file(io.StringIO(_read(args.infile)))
    k_max = args.k_max if args.k_max is not None else args.k
    if k_max < args.k:
        raise ValueError("--k-max must be >= -k")
    lines = []
    for result in analyzer.constant_modulus_scan(values, args.d, range(args.k, k_max + 1)):
        lines.append(analyzer.scan_to_json(result))
        if args.n_points is not None:
            summary = analyzer.candidate_from_scan(result, args.n_points)
            lines.append(analyzer.candidate_to_json(summary))
    return 0, "".join(lines)


def cmd_export(args) -> tuple[int, str]:
    from .embedding import float_code_to_text, gram_to_text

    code = _built(args)
    return 0, gram_to_text(code.gram) if args.exact else float_code_to_text(code)


def _add_input_options(sub) -> None:
    sub.add_argument("--in", dest="infile", required=True,
                     help="lattice code file, or - for stdin")


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
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("certify", help="build and print the full certificate")
    _add_input_options(p)
    p.add_argument("--t-max", type=int, default=3)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility and ignored")
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
        # the one write: a run that raises has written nothing
        status, text = args.func(args)
        _write(getattr(args, "out", None), text)
        return status
    except OSError as exc:
        print(f"harmonic-codes: i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"harmonic-codes: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
