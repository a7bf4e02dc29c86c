import ast
import hashlib
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import E8_CERTIFY_SHA256, INPUTS, PINNED_SCAN, PINNED_SCAN_SHA256

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
PACKAGE = ROOT / "src" / "harmonic_codes"


def _fresh_import(name, *flags):
    """A fresh interpreter, run with flags, imports `name`: the modules then
    loaded, and the module's __version__ (or None)."""
    script = (
        f"import sys, importlib\nmodule = importlib.import_module({name!r})\n"
        "print(' '.join(sys.modules))\n"
        "print(getattr(module, '__version__', None))\n"
    )
    run = subprocess.run([sys.executable, *flags, "-c", script], env=ENV, capture_output=True, text=True,
                         check=True)
    modules, version = run.stdout.splitlines()
    return set(modules.split()), version


def _fresh_main(argv, stdin, *flags):
    """A fresh interpreter, run with flags, runs cli.main(argv) on stdin: its exit
    status, its stdout, and the modules it loaded (listed on stderr's last line)."""
    script = (
        "import sys\nfrom harmonic_codes.cli import main\n"
        f"try:\n    status = main({argv!r})\nexcept SystemExit as exc:\n    status = exc.code\n"
        "print(' '.join(sys.modules), file=sys.stderr)\nsys.exit(status)\n"
    )
    run = subprocess.run([sys.executable, *flags, "-c", script], input=stdin, env=ENV, capture_output=True,
                         text=True)
    return run.returncode, run.stdout, set(run.stderr.splitlines()[-1].split())


def _submodules(modules):
    return sorted(m for m in modules if m.startswith("harmonic_codes."))


def test_package_root_loads_no_submodule_and_carries_the_version():
    modules, version = _fresh_import("harmonic_codes")
    assert _submodules(modules) == []
    # parsed with re: Python 3.10 has no tomllib
    (declared,) = re.findall(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert version == declared


@pytest.mark.parametrize("name", ["harmonic_codes.harmonics", "harmonic_codes.lattice"])
def test_leaf_module_imports_nothing_from_the_package(name):
    modules, _ = _fresh_import(name)
    assert _submodules(modules) == [name]


def test_cli_import_loads_no_dataclasses_inspect_or_analyzer():
    # against a bare interpreter's modules: `site` may already load some, such
    # as typing, through a .pth file
    bare, _ = _fresh_import("sys")
    cli, _ = _fresh_import("harmonic_codes.cli")
    assert _submodules(cli) == ["harmonic_codes.cli"]
    assert (cli - bare) & {"dataclasses", "inspect", "harmonic_codes.analyzer"} == set()


def _json_modules(modules):
    return {m for m in modules if m.split(".")[0] in ("json", "_json")}


def test_cli_import_loads_no_json():
    # certify and scan write their JSON as text, so no subcommand imports json
    bare, _ = _fresh_import("sys")
    cli, _ = _fresh_import("harmonic_codes.cli")
    assert _json_modules(cli - bare) == set()


@pytest.mark.parametrize(
    "argv, stdin, digest",
    [(PINNED_SCAN, "0\n1/2\n-1/2\n", PINNED_SCAN_SHA256), (["certify", "--in", "-"], INPUTS["e8"], E8_CERTIFY_SHA256)],
    ids=["scan", "certify"],
)
def test_json_writing_runs_load_no_json(argv, stdin, digest):
    # a fresh interpreter runs the subcommand through cli.main and writes its
    # pinned bytes: json is not among the modules it loaded
    status, out, modules = _fresh_main(argv, stdin)
    assert status == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    bare, _ = _fresh_import("sys")
    assert _json_modules(modules - bare) == set()


_BUILT = ["cli", "embedding", "harmonics", "lattice"]

# Each run's arguments, stdin, exit status and the package modules it loads:
# a subcommand imports what it runs when it runs, and nothing else
MODULE_SETS = [
    ("--version", "", 0, ["cli"]),
    ("build --in - --threads 3", "", 64, ["cli"]),
    ("roots", "", 0, ["cli", "lattice"]),
    ("dim -d 7 -k 2", "", 0, ["cli", "harmonics"]),
    ("gegenbauer -d 7 -k 2 --at 1/2", "", 0, ["cli", "harmonics"]),
    ("bound -n 240 --dim 35", "", 0, ["cli", "harmonics"]),
    ("scan --in - -d 7 -k 1 --k-max 3 --n-points 240", "0\n1/2\n-1/2\n", 0, ["analyzer", "cli", "harmonics"]),
    ("build --in -", "e8", 0, _BUILT),
    ("export --exact --in -", "square", 0, _BUILT),
    ("export --float --in -", "square", 0, _BUILT),
    ("certify --in -", "e8", 0, ["cli", "codes", "embedding", "harmonics", "lattice"]),
    ("design --in - --t-max 5", "e8", 0, ["cli", "codes", "embedding", "harmonics", "lattice"]),
]


@pytest.mark.parametrize("argv, stdin, status, loaded", MODULE_SETS, ids=[row[0] for row in MODULE_SETS])
def test_each_run_loads_only_the_modules_it_runs(argv, stdin, status, loaded):
    code, _, modules = _fresh_main(argv.split(), INPUTS.get(stdin, stdin))
    assert code == status
    assert _submodules(modules) == [f"harmonic_codes.{name}" for name in loaded]


@pytest.mark.parametrize(
    "argv, stdin", [(None, ""), (PINNED_SCAN, "0\n1/2\n-1/2\n"), (["certify", "--in", "-"], INPUTS["e8"])],
    ids=["import", "scan", "certify"],
)
def test_cli_loads_no_typing_without_site(argv, stdin):
    # -S keeps out what a .pth file loads at start-up: the stdlib modules the
    # CLI needs load no typing on 3.10-3.13, so any typing here is the package's
    if argv is None:
        modules, _ = _fresh_import("harmonic_codes.cli", "-S")
    else:
        status, _, modules = _fresh_main(argv, stdin, "-S")
        assert status == 0
    assert "typing" not in modules


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
@pytest.mark.parametrize(
    "argv, stdin",
    [(None, ""), (["roots"], ""), (PINNED_SCAN, "0\n1/2\n-1/2\n"), (["certify", "--in", "-"], INPUTS["e8"])],
    ids=["import", "roots", "scan", "certify"],
)
def test_cli_loads_no_parser_stack(argv, stdin, flags):
    # the command line is parsed without argparse, so neither gettext nor locale
    # loads; without site, which may load shutil through a .pth file, nothing
    # loads shutil, which argparse's help formatter needs
    bare, _ = _fresh_import("sys", *flags)
    if argv is None:
        modules, _ = _fresh_import("harmonic_codes.cli", *flags)
    else:
        status, _, modules = _fresh_main(argv, stdin, *flags)
        assert status == 0
    assert (modules - bare) & {"argparse", "gettext", "locale", *(["shutil"] if flags else [])} == set()


@pytest.mark.parametrize(
    "old, name, home",
    [
        ("codes", "QuadraticBound", "harmonics"),
        ("codes", "quadratic_bound", "harmonics"),
        ("codes", "format_bound", "harmonics"),
        ("embedding", "parse_rational", "harmonics"),
        # the attributes bench/run.py shims by name
        ("codes", "gegenbauer", "harmonics"),
        ("analyzer", "gegenbauer", "harmonics"),
        ("embedding", "select_antipodal_representatives", "lattice"),
    ],
)
def test_name_is_importable_from_its_old_module(old, name, home):
    old_module = importlib.import_module(f"harmonic_codes.{old}")
    assert getattr(old_module, name) is getattr(importlib.import_module(f"harmonic_codes.{home}"), name)


def test_scan_runs_in_a_fresh_process():
    # the one out-of-process run of `scan`, which imports the analyzer on demand
    run = subprocess.run([sys.executable, "-m", "harmonic_codes", *PINNED_SCAN], input="0\n1/2\n-1/2\n",
                         env=ENV, capture_output=True, text=True, check=True)
    assert run.stderr == ""
    assert hashlib.sha256(run.stdout.encode("utf-8")).hexdigest() == PINNED_SCAN_SHA256


def test_exact_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        import harmonic_codes.exact  # noqa: F401


def test_entry_points_run_cli_main():
    # the console script and `python -m harmonic_codes` both exit with cli.main's status
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (target,) = re.findall(r'^\[project\.scripts\]\nharmonic-codes = "([^"]+)"$', pyproject, re.M)
    assert target == "harmonic_codes.cli:main"
    import harmonic_codes.__main__
    import harmonic_codes.cli

    assert harmonic_codes.__main__.main is harmonic_codes.cli.main


def _top_level(path):
    """(name, node) of each module-level statement in path; name is None unless it
    is a function or class definition."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        yield (stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None), stmt


def _named(path):
    """(owner, name) of every Name, Attribute and import alias in path, where owner
    is the module-level definition the node sits in (None outside one)."""
    for owner, stmt in _top_level(path):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif isinstance(node, ast.alias):
                yield owner, node.name


def test_every_public_definition_has_a_caller_outside_the_unit_tests():
    # a function or class that only the unit tests name belongs in the tests,
    # as the witness it is, and a private one that nothing names is orphaned;
    # the package, the bench and the acceptance suite count as callers, a
    # definition's own body does not
    callers = {}
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        for owner, name in _named(path):
            callers.setdefault(name, set()).add((path, owner))
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, _ in _top_level(path)
        if name and not callers.get(name, set()) - {(path, name)}
    ]
    assert unused == []
