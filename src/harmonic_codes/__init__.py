"""Exact construction and certification of harmonic-embedded spherical codes.

The pipeline: generate the 240 scaled E8 roots, map one representative of
each antipodal pair through the degree-2 reproducing-kernel embedding
(traceless symmetric matrices), and certify the resulting antipodal
(35, 240, 1/7) code — coherence, tight-frame equality, 3-design property
and optimality — entirely in rational arithmetic.
"""

__version__ = "1.0.0"

from .analyzer import candidate_parameters, constant_modulus_scan
from .codes import (
    CodeReport,
    certify,
    design_strength,
    frame_bound_check,
    gram_from_embedded,
    max_coherence,
    quadratic_bound,
)
from .embedding import build_code, embed_degree2, flatten_coordinates, normalized_inner
from .exact import Rational, SymMatrix, frobenius_inner
from .harmonics import GegenbauerPoly, gegenbauer, harmonic_dimension
from .lattice import (
    LatticeCode,
    generate_e8_roots,
    select_antipodal_representatives,
    spectrum,
)

__all__ = [
    "CodeReport",
    "GegenbauerPoly",
    "LatticeCode",
    "Rational",
    "SymMatrix",
    "build_code",
    "candidate_parameters",
    "certify",
    "constant_modulus_scan",
    "design_strength",
    "embed_degree2",
    "flatten_coordinates",
    "frame_bound_check",
    "frobenius_inner",
    "gegenbauer",
    "generate_e8_roots",
    "gram_from_embedded",
    "harmonic_dimension",
    "max_coherence",
    "normalized_inner",
    "quadratic_bound",
    "select_antipodal_representatives",
    "spectrum",
]
