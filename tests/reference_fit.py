"""The polynomial fit's Newton stages as they were before their folds.

``fit_poly_density`` now caps the step with one fraction-to-boundary
expression, takes the final gradient norm from the last stage, and
hands each iterate's density and its log on to the gradient, the
Hessian and the next stage.  This copy keeps the earlier form: a branch
for the full step, the density and its log taken again at each stage's
start and for each gradient, ``np.linalg.norm``, and the gradient
evaluated again at the end.  It runs on the library's
``BarrierObjective``, so a test can compare every recorded field of the
two fits with ``==``.  Both solve for the step inside the Cholesky
test's ``try``, so a zero LU pivot is the same ``ConvergenceError``.
"""

import math
from types import SimpleNamespace

import numpy as np

from fishercap.constellation import _GAMMAS, _NEWTON_TOL, BarrierObjective
from fishercap.errors import ConvergenceError


def _newton_stage(problem, xi, max_newton, info):
    f = problem.density_on_grid(xi)
    obj = problem._objective(f)[0]
    iters = 0
    while True:
        g = problem._gradient(f, np.log(f))
        gnorm = float(np.linalg.norm(g))
        if gnorm < _NEWTON_TOL:
            return xi, iters
        if iters >= max_newton:
            raise ConvergenceError(
                f"fit_poly_density: Newton stalled at stage gamma={problem.gamma:g} "
                f"after {iters} steps (grad norm {gnorm:.3e})"
            )
        h = problem._hessian(f)
        try:
            np.linalg.cholesky(h)  # the positive-definite check
            step = -np.linalg.solve(h, g)
        except np.linalg.LinAlgError as e:
            raise ConvergenceError(
                f"fit_poly_density: Hessian not PD at gamma={problem.gamma:g}") from e
        decrement2 = float(-g @ step)
        floor = 1.0 + abs(obj)
        if decrement2 * 0.5 <= 1e-15 * floor:
            return xi, iters
        info.min_hessian_eigenvalues.append(float(np.linalg.eigvalsh(h)[0]))
        df = problem.basis @ step
        neg = df < 0
        if np.any(neg):
            t = min(1.0, 0.995 * float(np.min(-f[neg] / df[neg])))
        else:
            t = 1.0
        accepted = False
        while t >= 1e-14:
            cand = xi + t * step
            cand_f = problem.density_on_grid(cand)
            cand_obj = problem._objective(cand_f)[0]
            if cand_obj < obj:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if decrement2 * 0.5 <= 1e-12 * floor:
                return xi, iters
            raise ConvergenceError(
                f"fit_poly_density: line search failed at stage gamma={problem.gamma:g}"
            )
        xi, f, obj = cand, cand_f, cand_obj
        info.objective_path.append(obj)
        iters += 1


def fit_poly_density(channel, lam_star, degree, max_newton=100):
    """(PolyDensity, info), info with the fields of ``PolyFitInfo``."""
    info = SimpleNamespace(newton_iterations=[], objective_path=[],
                           min_hessian_eigenvalues=[], final_gradient_norm=math.nan)
    problem = BarrierObjective(channel, lam_star, degree, _GAMMAS[0])
    xi = np.zeros(problem.degree)
    for gamma in _GAMMAS:
        problem.gamma = gamma
        xi, iters = _newton_stage(problem, xi, max_newton, info)
        info.newton_iterations.append(iters)
    info.final_gradient_norm = float(np.linalg.norm(problem.gradient(xi)))
    return problem.to_poly_density(xi), info
