"""Command-line pipeline: generate, build, certify, bound, design, scan, export.

Exit protocol: 0 on success, 1 on domain or certification failures, 2 on
I/O failures, 64 on usage errors.  `certify` exits 0 only when the coherence
meets the quadratic bound and the frame inequality holds, so CI can treat it
as a theorem check of optimality; design strength is reported, not judged.

Each subcommand imports the package modules it runs when it runs, so
parsing the command line loads none of them and `roots`, for one, loads
only the lattice module.
"""

import io
import sys

from . import __version__


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
    from .harmonics import _token, gegenbauer, gegenbauer_rows, harmonic_dimension, parse_rational

    if args.at is None:
        poly = gegenbauer(args.d, args.k)
        return 0, " ".join([_token(c, poly.den) for c in poly.row]) + "\n"
    harmonic_dimension(args.d, args.k)  # d and k are rejected before the point is parsed
    p, q = parse_rational(args.at).as_integer_ratio()
    ((row, den),) = gegenbauer_rows(args.d, [p], q, [args.k])
    return 0, f"{_token(row[0], den)}\n"


def cmd_build(args) -> tuple[int, str]:
    from .harmonics import _token

    code = _built(args)
    values = sorted(code.counts.keys() | {code.den})
    return 0, (
        f"n_points {len(code)}\n"
        f"ambient_harmonic_dim {code.ambient_harmonic_dim}\n"
        f"gram_values {' '.join([_token(a, code.den) for a in values])}\n"
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
    from .harmonics import _token

    code = _built(args)
    check = design_strength(code, code.ambient_harmonic_dim - 1, args.t_max)
    lines = [f"design_strength {check.strength}\n"]
    residuals = enumerate(zip(check.nums, check.dens), start=1)
    lines += [f"residual k={k} {_token(a, den)}\n" for k, (a, den) in residuals]
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


# One row per option: flag, dest, type (int, str, or bool for a flag that stores True), default,
# required; --in and --out take a path, or - for stdin or stdout, and certify ignores --threads.
# One row per subcommand: its function, its help line, its options, the flags it needs exactly one of.
_IN, _OUT = ("--in", "infile", str, None, True), ("--out", "out", str, None, False)
_D, _K, _T_MAX = ("-d", "d", int, None, True), ("-k", "k", int, None, True), ("--t-max", "t_max", int, 3, False)
_N, _DIM, _AT = ("-n", "n", int, None, True), ("--dim", "dim", int, None, True), ("--at", "at", str, None, False)
_K_MAX, _N_POINTS = ("--k-max", "k_max", int, None, False), ("--n-points", "n_points", int, None, False)
_EXACT, _FLOAT = ("--exact", "exact", bool, False, False), ("--float", "float", bool, False, False)
_THREADS = ("--threads", "threads", int, None, False)

_COMMANDS = {
    "roots": (cmd_roots, "generate the 240 scaled E8 roots", [_OUT], ()),
    "dim": (cmd_dim, "dimension of the degree-k harmonic space on S^d", [_D, _K], ()),
    "gegenbauer": (cmd_gegenbauer, "normalized Gegenbauer coefficients, or the value --at p/q", [_D, _K, _AT], ()),
    "build": (cmd_build, "embed a code and summarize its gram", [_IN], ()),
    "certify": (cmd_certify, "build and print the full certificate", [_IN, _T_MAX, _THREADS], ()),
    "bound": (cmd_bound, "coherence lower bound for N antipodal points in dimension DIM", [_N, _DIM], ()),
    "design": (cmd_design, "design strength of the embedded code, up to degree --t-max", [_IN, _T_MAX], ()),
    "scan": (cmd_scan, "Gegenbauer image scan of a spectrum file", [_IN, _D, _K, _K_MAX, _N_POINTS, _OUT], ()),
    "export": (cmd_export, "exact gram or float coordinates", [_IN, _EXACT, _FLOAT, _OUT], ("--exact", "--float")),
}


def _exit(name, error=None):
    """Exit 0 after the help of the root (name None) or a subcommand, or 64 after its usage and the error."""
    if name is None:
        usage = f"usage: harmonic-codes [-h] [--version] {{{','.join(_COMMANDS)}}} ..."
        about = __doc__ + "\n" + "\n".join(f"  {command:12}{row[1]}" for command, row in _COMMANDS.items())
    else:
        _, about, options, one_of = _COMMANDS[name]
        words = [f"{flag} {dest.upper()}" if required else f"[{flag} {dest.upper()}]"
                 for flag, dest, _, _, required in options if flag not in one_of]
        group = [f"({' | '.join(one_of)})"] if one_of else []
        usage = " ".join([f"usage: harmonic-codes {name} [-h]", *words, *group])
    if error is not None:
        sys.stderr.write(f"{usage}\nharmonic-codes{'' if name is None else ' ' + name}: error: {error}\n")
        sys.exit(64)
    sys.stdout.write(f"{usage}\n\n{about}\n")
    sys.exit(0)


class _CommandLine:
    def parse_args(self, argv=None):
        """The subcommand's options as attributes by dest, and `func`, the subcommand: the first
        argument with no leading dash.  An option is `FLAG VALUE` or `FLAG=VALUE`; its value is
        the next argument unless that is one of the subcommand's flags, so `--at -1/2` reads -1/2."""
        argv = sys.argv[1:] if argv is None else argv
        at = next((i for i, token in enumerate(argv) if token[:1] != "-" or token == "-"), len(argv))
        if {"-h", "--help"} & set(argv[:at]):
            _exit(None)
        if "--version" in argv[:at]:
            sys.stdout.write(__version__ + "\n")
            sys.exit(0)
        if at == len(argv) or argv[at] not in _COMMANDS:
            _exit(None, f"argument subcommand: invalid choice: {argv[at]!r}" if at < len(argv) else
                  "the following arguments are required: subcommand")
        name, given, extras, tokens = argv[at], {}, [], iter(argv[at + 1:])
        func, _, options, one_of = _COMMANDS[name]
        kinds = {flag: kind for flag, _, kind, _, _ in options}
        for token in tokens:
            if token in ("-h", "--help"):
                _exit(name)
            flag, eq, value = token.partition("=")
            if (kind := kinds.get(flag)) is None or kind is bool and eq:
                extras.append(token)
                continue
            if kind is not bool and not eq:
                value = next(tokens, None)
                if value is None or value in ("-h", "--help") or value.partition("=")[0] in kinds:
                    _exit(name, f"argument {flag}: expected one argument")
            if flag in one_of and (clash := [other for other in one_of if other in given and other != flag]):
                _exit(name, f"argument {flag}: not allowed with argument {clash[0]}")
            try:
                given[flag] = True if kind is bool else kind(value)
            except ValueError:
                _exit(name, f"argument {flag}: invalid int value: {value!r}")
        if missing := [flag for flag, _, _, _, required in options if required and flag not in given]:
            _exit(name, "the following arguments are required: " + ", ".join(missing))
        if one_of and not given.keys() & set(one_of):
            _exit(name, "one of the arguments " + " ".join(one_of) + " is required")
        if extras or argv[:at]:  # the subcommand's leftovers first, then the root's
            _exit(name if extras else None, "unrecognized arguments: " + " ".join(extras or argv[:at]))
        self.__dict__.update({dest: given.get(flag, default) for flag, dest, _, default, _ in options}, func=func)
        return self


def build_parser() -> _CommandLine:
    return _CommandLine()


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
