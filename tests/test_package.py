import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _fresh_import(name):
    """A fresh interpreter imports `name` and prints the harmonic_codes.*
    modules that loaded, then the module's __version__ (or None)."""
    script = (
        f"import sys, importlib\nmodule = importlib.import_module({name!r})\n"
        "print(sorted(m for m in sys.modules if m.startswith('harmonic_codes.')))\n"
        "print(getattr(module, '__version__', None))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def test_package_root_loads_no_submodule_and_carries_the_version():
    submodules, version = _fresh_import("harmonic_codes")
    assert submodules == "[]"
    # parsed with re: Python 3.10 has no tomllib
    (declared,) = re.findall(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert version == declared


@pytest.mark.parametrize("name", ["harmonic_codes.harmonics", "harmonic_codes.lattice"])
def test_leaf_module_imports_nothing_from_the_package(name):
    submodules, _ = _fresh_import(name)
    assert submodules == repr([name])


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
