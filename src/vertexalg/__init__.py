"""vertexalg: exact-arithmetic vertex algebras on polynomial homology models.

The package computes vertex-algebra and module products on explicit
polynomial models of moduli-stack homology and verifies the defining
identities at finite truncation.  All arithmetic is exact rational; floats
never appear.
"""

__version__ = "0.1.0"

from .poly import Poly
from .series import (
    INF,
    LinearForm,
    LocalizedSeries,
    TruncSeries,
    VarSet,
    iota_expand,
    residue,
    series_equal,
    series_exp,
)

__all__ = [
    "INF",
    "LinearForm",
    "LocalizedSeries",
    "Poly",
    "TruncSeries",
    "VarSet",
    "iota_expand",
    "residue",
    "series_equal",
    "series_exp",
    "__version__",
]
