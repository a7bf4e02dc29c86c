import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import PINNED_SCAN, PINNED_SCAN_SHA256

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _fresh_import(name):
    """A fresh interpreter imports `name`: the modules then loaded, and the
    module's __version__ (or None)."""
    script = (
        f"import sys, importlib\nmodule = importlib.import_module({name!r})\n"
        "print(' '.join(sys.modules))\n"
        "print(getattr(module, '__version__', None))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True, text=True, check=True)
    modules, version = run.stdout.splitlines()
    return set(modules.split()), version


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
    assert "harmonic_codes.codes" in cli
    assert (cli - bare) & {"dataclasses", "inspect", "harmonic_codes.analyzer"} == set()


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
