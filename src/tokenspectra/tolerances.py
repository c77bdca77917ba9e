"""Every numerical tolerance of the library, in one place.

Absolute bounds apply to quantities of unit scale, such as residuals of
unit vectors; bounds on a sector matrix's own entries (coupling, skew,
realness, Sturm root gap) scale with its largest entry: ``quotient_tol``.
"""

AGREE_TOL = 1e-8  # pointwise gap at which two sorted spectra agree; the CLI's --tol
RESIDUAL_TOL = 1e-8  # max|b v - lambda v| of a unit eigenvector of a sector matrix
IMAG_TOL = 1e-7  # imaginary part of a sector eigenvalue that must be real
CLUSTER_TOL = 1e-6  # values this close tie (full_spectrum) or span one eigenspace (filter_spurious)
RANK_TOL = 1e-8  # filter_spurious: singular values above this count towards the rank
LIFT_SUPPORT_TOL = 1e-10  # lift: components up to this times the largest count as zero
LIFT_RESIDUAL_TOL = 1e-8  # lift: |L x - lambda x| of the lifted vector
NEWTON_STEP_TOL = 1e-12  # two-token Newton steps stop below this fraction of the bracket
POLE_TOL = 1e-12  # a continued-fraction denominator below this is a pole
BRANCH_GUARD = 0.1  # the rho form is not evaluated within this of Z^2 = 4 ...
CLOSED_FORM_IMAG_TOL = 1e-8  # ... and its imaginary part must stay within this
ZERO_TOL = 1e-8  # algebraic_connectivity: eigenvalues at most this are zero


def quotient_tol(biggest):
    """1e-8 (1 + max|b|) for a sector matrix b, elementwise for an array of max|b|."""
    return 1e-8 * (1.0 + biggest)
