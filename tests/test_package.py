import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_package_root_loads_no_submodule_and_carries_the_version():
    script = (
        "import sys, harmonic_codes\n"
        "print(sorted(m for m in sys.modules if m.startswith('harmonic_codes.')))\n"
        "print(harmonic_codes.__version__)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    submodules, version = run.stdout.splitlines()
    assert submodules == "[]"
    # parsed with re: Python 3.10 has no tomllib
    (declared,) = re.findall(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert version == declared
