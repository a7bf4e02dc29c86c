import re
from pathlib import Path

import pytest

from harmonic_codes.codes import certify, gram_from_embedded
from harmonic_codes.embedding import build_code
from harmonic_codes.lattice import generate_e8_roots

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="session")
def readme_certificate():
    """The README's one fenced json block: `certify`'s output on the E8 roots."""
    (block,) = re.findall(r"^```json\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    return block


@pytest.fixture(scope="session")
def e8_roots():
    return generate_e8_roots()


@pytest.fixture(scope="session")
def e8_code(e8_roots):
    return build_code(e8_roots)


@pytest.fixture(scope="session")
def e8_gram(e8_code):
    return gram_from_embedded(e8_code)


@pytest.fixture(scope="session")
def e8_report(e8_code):
    return certify(e8_code)
