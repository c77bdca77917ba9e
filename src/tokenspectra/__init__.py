"""Laplacian spectra and eigenspaces of k-token graphs of cycles.

Three mutually verifying routes: explicit construction with a dense
eigensolver, the orbit polynomial matrix evaluated at roots of unity
with spurious-eigenvalue filtering, and (for two tokens) continued
fraction and transfer-matrix closed forms.
"""
from .errors import (CountMismatchError, NumericFailureError,
                     ParameterDomainError, PhaseConsistencyError, PoleError,
                     SizeLimitError)
from .laurent import LaurentMatrix
from .necklaces import (OrbitTable, count_burnside, count_moreau, count_polya,
                        enumerate_orbits)
from .polymatrix import (EigenPair, LiftedVector, build_poly_matrix, full_spectrum,
                         kept_eigenpairs, lift_eigenvector)
from .report import SpectrumReport, multiset_contains, multisets_close
from .tokengraph import (TokenGraph, brute_spectrum, build_token_graph,
                         laplacian)
from .twotoken import (charpoly_rho_form, charpoly_sector, contfrac_q1,
                       sector_roots, spectrum_2token)

__version__ = "0.1.0"

__all__ = [
    "CountMismatchError", "NumericFailureError", "ParameterDomainError",
    "PhaseConsistencyError", "PoleError", "SizeLimitError",
    "LaurentMatrix",
    "OrbitTable", "count_burnside", "count_moreau", "count_polya",
    "enumerate_orbits",
    "EigenPair", "LiftedVector", "build_poly_matrix", "full_spectrum",
    "kept_eigenpairs", "lift_eigenvector",
    "SpectrumReport", "multiset_contains", "multisets_close",
    "TokenGraph", "brute_spectrum", "build_token_graph", "laplacian",
    "charpoly_rho_form", "charpoly_sector", "contfrac_q1", "sector_roots",
    "spectrum_2token",
    "__version__",
]
