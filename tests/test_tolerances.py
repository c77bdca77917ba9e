import inspect

import numpy as np

from tokenspectra import charpoly_rho_form, contfrac_q1, tolerances
from tokenspectra.polymatrix import filter_spurious, sector_eigenpairs
from tokenspectra.tokengraph import algebraic_connectivity


def test_values():
    # the values the modules held before they moved here
    assert {name: getattr(tolerances, name) for name in (
        "AGREE_TOL", "RESIDUAL_TOL", "IMAG_TOL", "CLUSTER_TOL", "RANK_TOL",
        "LIFT_SUPPORT_TOL", "LIFT_RESIDUAL_TOL", "NEWTON_STEP_TOL", "POLE_TOL",
        "ZERO_TOL")} == {
        "AGREE_TOL": 1e-8, "RESIDUAL_TOL": 1e-8, "IMAG_TOL": 1e-7, "CLUSTER_TOL": 1e-6,
        "RANK_TOL": 1e-8, "LIFT_SUPPORT_TOL": 1e-10, "LIFT_RESIDUAL_TOL": 1e-8,
        "NEWTON_STEP_TOL": 1e-12, "POLE_TOL": 1e-12, "ZERO_TOL": 1e-8}


def test_quotient_tol_scalar_and_per_sector():
    biggest = np.array([0.0, 4.0, 6.5])
    assert tolerances.quotient_tol(4.0) == 1e-8 * (1.0 + 4.0)
    assert tolerances.quotient_tol(biggest).tolist() == [1e-8 * (1.0 + b) for b in biggest]


def test_no_tolerance_keywords():
    for func in (sector_eigenpairs, filter_spurious, contfrac_q1, charpoly_rho_form,
                 algebraic_connectivity):
        params = set(inspect.signature(func).parameters)
        assert not params & {"imag_tol", "residual_tol", "cluster_tol", "rank_tol",
                             "pole_tol", "guard", "zero_tol"}, func.__name__
