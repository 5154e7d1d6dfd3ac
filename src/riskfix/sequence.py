"""Gaussian-sequence-model processes of the constrained least squares fit.

For ``y = mu0 + sigma * h`` and ``fit = Pi_K(y)`` the three processes are

    err(sigma) = ||fit - mu0||^2
    lrt(sigma) = ||y - mu0||^2 - ||y - fit||^2
    dof(sigma) = <fit - mu0, sigma * h>

linked pathwise by ``lrt = 2 dof - err`` and ``err <= dof <= lrt``.
``process_rows`` evaluates them for every row of a noise matrix, reducing
the rows block by block (``constraints.reduce_rows``): the noise matrix is
shared by every sigma, and its y, fits and residuals then exist one
cache-sized block at a time, never at its full size.  ``eval_processes`` is
its checked one-row call.  Monte Carlo expectations over a sigma grid share
one set of h draws (common random numbers), which keeps the pathwise
monotonicity statements exactly testable and removes Monte Carlo jitter
between grid points.
"""

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, MonteCarloConfig, project_rows, reduce_rows, row_sq_norms
# perfbench/spans.py wraps sequence.project; tests/test_tracer_targets.py checks the name resolves.
from .constraints import project  # noqa: F401
from .errors import DomainError
from .kernels import kernel_G, kernel_H
from .seeds import gaussian_rows, mean_se


@dataclass(frozen=True)
class RiskCurve:
    """Monte Carlo means and standard errors over an increasing sigma grid.

    All grid points share the identical set of h draws (common random
    numbers): ``mc.samples`` rows drawn from ``mc.seed``.
    """

    sigma_grid: np.ndarray
    err_mean: np.ndarray
    err_se: np.ndarray
    lrt_mean: np.ndarray
    lrt_se: np.ndarray
    dof_mean: np.ndarray
    dof_se: np.ndarray
    mc: MonteCarloConfig


def eval_processes(K: ConstraintSet, mu0, sigma: float, h) -> tuple:
    """``(err, lrt, dof)`` as floats for one noise draw ``h`` at level ``sigma``.

    The one-row case of ``process_rows``, after checking that ``sigma`` is
    positive and finite and that ``mu0`` lies in K.
    """
    mu0 = np.asarray(mu0, dtype=float)
    _check_inputs(K, mu0, sigma)
    H = np.asarray(h, dtype=float).reshape(1, -1)
    return tuple(float(v[0]) for v in process_rows(K, mu0, sigma, H))


def process_rows(K: ConstraintSet, mu0: np.ndarray, sigma: float, H: np.ndarray) -> np.ndarray:
    """err, lrt and dof for the rows of ``H``, as the rows of a (3, len(H)) array.

    The rows are reduced block by block (``reduce_rows``), so the pass holds
    ``H`` and one block's y, fits and residuals; ``H`` is never written.
    """

    def processes(B):
        Y = sigma * B
        Y += mu0
        fits = project_rows(K, Y)
        Y -= fits  # residuals
        fits -= mu0  # differences from mu0
        err = row_sq_norms(fits)
        dof = sigma * np.einsum("ij,ij->i", fits, B)
        lrt = sigma * sigma * row_sq_norms(B) - row_sq_norms(Y)
        return err, lrt, dof

    return reduce_rows(processes, H, np.empty((3, len(H))))


def mc_expectations(
    K: ConstraintSet,
    mu0,
    sigma_grid,
    mc: MonteCarloConfig = MonteCarloConfig(samples=2000),
) -> RiskCurve:
    """Monte Carlo E err / E lrt / E dof over ``sigma_grid``, all from ``mc``'s draws (CRN)."""
    mu0 = np.asarray(mu0, dtype=float)
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    if sigma_grid.ndim != 1 or sigma_grid.size == 0:
        raise DomainError("sigma grid must be a non-empty 1-d array")
    if not (np.all(np.isfinite(sigma_grid)) and sigma_grid[0] > 0 and np.all(np.diff(sigma_grid) > 0)):
        raise DomainError("sigma grid must be positive and strictly increasing")
    _check_inputs(K, mu0, float(sigma_grid[0]))

    H = gaussian_rows(mc.seed, mc.samples, K.n)
    shape = sigma_grid.shape
    em, es = np.empty(shape), np.empty(shape)
    lm, ls = np.empty(shape), np.empty(shape)
    dm, ds = np.empty(shape), np.empty(shape)
    for j, sigma in enumerate(sigma_grid):
        err, lrt, dof = process_rows(K, mu0, float(sigma), H)
        em[j], es[j] = mean_se(err)
        lm[j], ls[j] = mean_se(lrt)
        dm[j], ds[j] = mean_se(dof)
    return RiskCurve(sigma_grid, em, es, lm, ls, dm, ds, mc)


def orthant_err_closed_form(mu0, sigma: float) -> float:
    """Exact E err(sigma) for the orthant: sigma^2 * sum_i G(mu0_i / sigma)."""
    mu0 = _check_orthant_args(mu0, sigma)
    return float(sigma * sigma * np.sum(kernel_G(mu0 / sigma)))


def orthant_lrt_closed_form(mu0, sigma: float) -> float:
    """Exact E lrt(sigma) for the orthant: E err + 2 sigma^2 sum_i H(mu0_i/sigma)."""
    mu0 = _check_orthant_args(mu0, sigma)
    extra = 2.0 * sigma * sigma * np.sum(kernel_H(mu0 / sigma))
    return orthant_err_closed_form(mu0, sigma) + float(extra)


def _check_orthant_args(mu0, sigma: float) -> np.ndarray:
    mu0 = np.asarray(mu0, dtype=float)
    if np.any(mu0 < 0):
        raise DomainError("orthant closed forms need a non-negative mu0")
    if not 0 < sigma < np.inf:
        raise DomainError("sigma must be positive")
    return mu0


def _check_inputs(K: ConstraintSet, mu0: np.ndarray, sigma: float) -> None:
    if not 0 < sigma < np.inf:
        raise DomainError("sigma must be positive")
    if not K.contains(mu0):
        raise DomainError("mu0 must belong to K")
