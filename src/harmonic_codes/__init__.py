"""Exact construction and certification of harmonic-embedded spherical codes.

The pipeline: generate the 240 scaled E8 roots, map one representative of
each antipodal pair through the degree-2 reproducing-kernel embedding
(traceless symmetric matrices), and certify the resulting antipodal
(35, 240, 1/7) code — coherence, tight-frame equality, 3-design property
and optimality — entirely in rational arithmetic.

The package root holds only `__version__`; import names from their modules.
"""

__version__ = "1.0.0"
