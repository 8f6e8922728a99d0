"""Isolated eigenvalues and eigenvectors of banded semi-infinite
operators with a finite correction, through a finite nonlinear
eigenvalue problem solved by Newton's iteration."""

from .errors import (
    ClusteredRootsError,
    ConvergenceError,
    DerivativeVanishesError,
    DomainError,
    FactorizationUnstableError,
    InconsistentConstantError,
    InvalidInputError,
    InvalidSymbolError,
    OnCurveError,
    PrefixTooShortError,
    QTEigError,
    SectionTooSmallError,
    SingularMatrixError,
)
from .factor import WienerHopfFactors, barnett_g, wiener_hopf
from .nep import BasisPair, NEPContext, basis_frobenius, basis_vandermonde, build_w, eigvec_prefix, newton_correction, phi
from .poly import (
    LaurentSymbol,
    Poly,
    RootCount,
    char_poly,
    convolve,
    count_inside,
    inside_roots,
    winding,
)
from .qt import (
    Correction,
    EigRecord,
    QTMatrix,
    SolveStatus,
    apply_prefix,
    finite_section,
    norm_inf,
    qt_new,
    symbol_curve,
)
from .solver import (
    EigenSolveReport,
    SolverConfig,
    basins,
    eig_all,
    eig_single,
    section_size,
    winding_map,
)

__version__ = "0.1.0"
