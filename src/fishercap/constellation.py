"""Constellation design from tilted Jeffreys priors.

The exact design pushes a midpoint grid on [0, 1] through the inverse
prior cdf (a compander) in one array call, then rescales so the average
power budget holds.  Ball channels get a radius-times-direction design
on a caller's direction set; the CLI, whose CSV has one point column,
refuses them.  When the cdf has no closed form, a ``PolyDensity`` is
fitted to the prior by Newton descent on the KL divergence with a
logarithmic barrier enforcing positivity; its closed-form ``cdf`` and
its ``inverse``, which solves a whole grid with the prior's safeguarded
Newton solver, check their argument as ``TiltedPrior``'s do.

A fit is one grid problem: it is built once, each barrier stage only sets
its barrier weight gamma, and a stage fails after ``max_newton`` Newton
steps.  The problem evaluates J at the grid's two ends before the rest,
so a target that vanishes there is refused at two points.  Each Newton
iterate evaluates the density on the grid and its log once, for its
value, gradient, Hessian and boundary step, and the next stage starts
from them; positivity is tested once per line-search candidate, since a
finite objective proves it.  The Hessian's weighted basis is written
into one buffer that lives as long as the fit's problem.  The Hessian's
smallest eigenvalue and the objective path are computed only for
``full_output``; the fit's final gradient norm is the one its last stage
stopped on.  The exact designs read the prior the tilt solve returns
(``JeffreysSolution.prior``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import DiscreteInput, _power_per_point
from .errors import ConvergenceError, DomainError, PositivityError, ValidationError
from .errors import _check_profile, _count, _real, _reals
from .jeffreys import LN2, _compand, invert_monotone, prior_cdf_inverse, solve_lambda_star
from .quad import _midpoints, _row_dots
from .specfun import _scalar

_GRID_POINTS = 4097  # odd: the fit grid is integrated by composite Simpson
_GAMMA_0, _GAMMA_MIN = 10.0, 1e-8  # first and last barrier weight
_NEWTON_TOL = 1e-9  # a Newton stage stops once the gradient norm is below this

# Barrier weights 10, 1, 0.1, ..., 1e-8, one per stage.  The continuation
# starts barrier-dominated, so the first stage is an easy solve from the
# uniform start and every later stage is warm-started; cold starts at
# small gamma stall against the positivity boundary for strongly peaked
# targets.
_GAMMAS = [_GAMMA_0]
while _GAMMAS[-1] > _GAMMA_MIN * (1.0 + 1e-9):
    _GAMMAS.append(max(_GAMMAS[-1] * 0.1, _GAMMA_MIN))
_GAMMAS = tuple(_GAMMAS)


def _scaled_constellation(raw_points, P):
    P = _real(P, "constellation: P", 0.0)
    raw = np.asarray(raw_points, dtype=float)
    m = raw.shape[0]
    probs = np.full(m, 1.0 / m)
    mean_pow = float(probs @ _power_per_point(raw))
    c_p = 1.0 if mean_pow <= P or mean_pow == 0.0 else math.sqrt(P / mean_pow)
    return DiscreteInput(c_p * raw, probs)


def jeffreys_constellation(channel, P, M):
    """Inverse-cdf constellation of size M for the tilted prior at (channel, P).

    Points are c_P F^{-1}(u) over the midpoint grid with uniform
    probabilities; c_P = min(1, sqrt(P / mean raw power)) keeps the
    average power within budget.
    """
    grid = _midpoints(0.0, 1.0, _count(M, "jeffreys_constellation: M", 2))
    return _scaled_constellation(prior_cdf_inverse(solve_lambda_star(channel, P).prior, grid), P)


def pam_constellation(channel, P, M):
    """Uniform grid on [lo, hi] under the same power scaling; the baseline."""
    lo, hi = channel.param_space.profile_bounds
    return _scaled_constellation(np.linspace(lo, hi, _count(M, "pam_constellation: M", 2)), P)


# ---------------------------------------------------------------------------
# Polynomial density fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyDensity:
    """Density sum_i coeffs[i] theta^i on [lo, hi], positive on its grid; each method checks its input."""

    coeffs: np.ndarray
    support: tuple

    def __post_init__(self):
        c = _reals(self.coeffs, "PolyDensity: coeffs", error=ValidationError)
        support = _reals(self.support, "PolyDensity: support", error=ValidationError)
        if support.shape != (2,) or not support[0] < support[1]:
            raise ValidationError("PolyDensity: support must be two reals lo < hi")
        lo, hi = float(support[0]), float(support[1])
        grid = np.linspace(lo, hi, _GRID_POINTS)
        vals = np.polynomial.polynomial.polyval(grid, c)
        if np.any(vals <= 0):
            raise PositivityError("PolyDensity: not strictly positive on the support grid")
        alphas = _monomial_integrals(lo, hi, len(c))
        if abs(c @ alphas - 1.0) > 1e-9:
            raise ValidationError("PolyDensity: coefficients do not integrate to 1")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "support", (lo, hi))

    def pdf(self, theta):
        t = _check_profile(theta, *self.support, "PolyDensity.pdf")
        return _scalar(np.polynomial.polynomial.polyval(t, self.coeffs))

    def cdf(self, theta):
        """Closed-form F(theta) = sum_i xi_i (theta^(i+1) - lo^(i+1)) / (i+1)."""
        return _scalar(_poly_cdf(self, _check_profile(theta, *self.support, "PolyDensity.cdf")))

    def inverse(self, u):
        """Solve F(theta) = u for a float u or an array by safeguarded Newton on the closed-form cdf."""
        lo, hi = self.support
        u = _reals(u, "PolyDensity.inverse: u", 0.0, 1.0)
        return _compand(u, lo, hi, lambda v: invert_monotone(self._F_dF, v, lo, hi, lo + v * (hi - lo)))

    def _F_dF(self, t, k):
        # F and F' = f at Newton's iterates t, which stay in the support
        return _poly_cdf(self, t), np.polynomial.polynomial.polyval(t, self.coeffs)


def _monomial_integrals(lo, x, n):
    # (x^(i+1) - lo^(i+1)) / (i+1), the integral of theta^i over [lo, x], for i < n on a new last axis
    i = np.arange(n)
    return (np.asarray(x)[..., None] ** (i + 1) - lo ** (i + 1)) / (i + 1)


def _poly_cdf(p, t):
    # p.cdf at a checked theta array: the monomial sum, clipped to [0, 1]
    return np.clip(_row_dots(_monomial_integrals(p.support[0], t, p.coeffs.size), p.coeffs), 0.0, 1.0)


def _simpson_weights(n, lo, hi):
    # n odd node count over [lo, hi]
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (hi - lo) / (3.0 * (n - 1))


class BarrierObjective:
    """Grid discretization of D(f_xi || prior) + gamma D(uniform || f_xi).

    Free coordinates are xi_1..xi_d; xi_0 follows from the moment
    identity so every candidate integrates to one.  Gradient and
    Hessian are the analytic forms

        grad_i = integral b_i psi dtheta,
        hess_ij = integral b_i b_j (1/f + gamma/(W f^2)) dtheta,

    with b_i = d f / d xi_i and
    psi = ln f + 1 + lambda* ln2 c - (1/2) ln J - (gamma/W) / f;
    the ln 2 converts the base-2 tilt into the natural-log divergence.

    The solve runs on the affinely normalized coordinate tau in [-1, 1]
    (both divergences are invariant under the change of variables), so
    the monomial Gram matrix stays well conditioned for wide supports;
    ``to_poly_density`` maps the solution back to the theta power basis.

    Everything but gamma is fixed by (channel, lambda*, degree), so a fit
    builds the grid problem once and sets ``gamma`` at each barrier stage.
    """

    def __init__(self, channel, lam_star, degree, gamma):
        degree = _count(degree, "BarrierObjective: degree", 0)
        if channel.param_space.shape != "interval":
            raise DomainError("BarrierObjective: needs a 1-D interval parameter space")
        lo, hi = channel.param_space.profile_bounds
        self.lo, self.hi = lo, hi
        self.scale = 0.5 * (hi - lo)
        self.center = 0.5 * (hi + lo)
        self.width = 2.0  # tau support width
        self.degree = degree
        self.gamma = float(gamma)
        self.lam_star = _real(lam_star, "BarrierObjective: lambda*", 0.0, closed=True)
        self.grid = np.linspace(-1.0, 1.0, _GRID_POINTS)
        self.weights = _simpson_weights(_GRID_POINTS, -1.0, 1.0)
        self.alphas = _monomial_integrals(-1.0, 1.0, degree + 1)

        theta = self.center + self.scale * self.grid
        j = np.empty(_GRID_POINTS)
        # the two ends first: a J that vanishes there (J(0) = 0 for energy detection and
        # noncoherent) is refused before the rest of the grid is evaluated
        for part in (np.array([0, -1]), slice(1, -1)):
            j[part] = channel.fisher(theta[part])
            if np.any(j[part] <= 0):
                raise DomainError("BarrierObjective: target prior vanishes on the grid")
        cost = np.asarray(channel.cost(theta), dtype=float)
        log_w = -self.lam_star * LN2 * cost + 0.5 * np.log(j)
        log_w -= math.log(float(self.weights @ np.exp(log_w - log_w.max()))) + log_w.max()
        self.log_target = log_w

        powers = np.vander(self.grid, degree + 1, increasing=True)  # (n, degree+1)
        self.powers = powers
        # basis of the free coordinates: d f / d xi_i, i = 1..degree
        self.basis = powers[:, 1:] - self.alphas[1:] / self.alphas[0]
        self._scaled_basis = np.empty_like(self.basis)  # the Hessian's weighted basis, reused

    def full_coeffs(self, xi_free):
        xi_free = np.asarray(xi_free, dtype=float)
        if xi_free.shape != (self.degree,):
            raise DomainError(f"expected {self.degree} free coefficients")
        return self._coeffs(xi_free)

    def density_on_grid(self, xi_free):
        return self.powers @ self.full_coeffs(xi_free)

    def to_poly_density(self, xi_free):
        """Map tau-basis coefficients to a PolyDensity in theta coordinates."""
        tau_coef = self.full_coeffs(xi_free) / self.scale  # density Jacobian
        p = np.polynomial.Polynomial(tau_coef, domain=[self.lo, self.hi], window=[-1.0, 1.0])
        theta_coef = p.convert(domain=[self.lo, self.hi], window=[self.lo, self.hi]).coef
        if theta_coef.size < self.degree + 1:
            theta_coef = np.pad(theta_coef, (0, self.degree + 1 - theta_coef.size))
        return PolyDensity(theta_coef, (self.lo, self.hi))

    def value(self, xi_free):
        return self._objective(self.density_on_grid(xi_free))[0]

    def gradient(self, xi_free):
        f = self._feasible(xi_free, "gradient")
        return self._gradient(f, np.log(f))

    def hessian(self, xi_free):
        return self._hessian(self._feasible(xi_free, "hessian"))

    def _feasible(self, xi_free, what):
        f = self.density_on_grid(xi_free)
        if np.any(f <= 0):
            raise PositivityError(f"{what} requested at an infeasible point")
        return f

    # The private helpers take the free coefficients unchecked and the density f on the grid
    # with its log, so a Newton iterate takes each once.

    def _coeffs(self, xi_free):
        xi0 = (1.0 - xi_free @ self.alphas[1:]) / self.alphas[0]
        return np.concatenate(([xi0], xi_free))

    def _density(self, xi_free):
        return self.powers @ self._coeffs(xi_free)

    def _objective(self, f):
        """(objective, ln f) at f, or (inf, None) where f is not strictly positive."""
        if np.any(f <= 0):
            return math.inf, None
        log_f = np.log(f)
        return self._value(f, log_f), log_f

    def _value(self, f, log_f):
        kl = float(self.weights @ (f * (log_f - self.log_target)))
        barrier = float(self.weights @ (-np.log(f * self.width))) / self.width
        return kl + self.gamma * barrier

    def _gradient(self, f, log_f):
        psi = log_f + 1.0 - self.log_target - (self.gamma / self.width) / f
        return self.basis.T @ (self.weights * psi)

    def _hessian(self, f):
        curv = self.weights * (1.0 / f + (self.gamma / self.width) / (f * f))
        np.multiply(self.basis, curv[:, None], out=self._scaled_basis)
        return self._scaled_basis.T @ self.basis


@dataclass
class PolyFitInfo:
    newton_iterations: list = field(default_factory=list)
    objective_path: list = field(default_factory=list)
    min_hessian_eigenvalues: list = field(default_factory=list)
    final_gradient_norm: float = math.nan

    @property
    def total_iterations(self):
        return sum(self.newton_iterations)


def _newton_stage(problem, xi, f, log_f, max_newton, info):
    """Damped Newton to the gradient-norm stop or the objective floor.

    Returns (xi, f, ln f, steps, gradient norm at xi), where f and ln f
    are the density at xi on the grid and its log; the stage starts from
    the ones the previous stage returned.  ``info`` records the iterates,
    or is None, and then no eigenvalue is computed.

    The step is capped by the exact fraction-to-boundary rule (f is
    affine in the coefficients, so the largest positive step is known in
    closed form), then backtracks on strict objective decrease.  A stage
    also ends when the Newton decrement shows the remaining improvement
    is below the resolution of the discretized objective; strongly
    peaked targets end their small-gamma stages this way, pressed
    against the positivity boundary.
    """
    obj = problem._value(f, log_f)
    iters = 0
    while True:
        g = problem._gradient(f, log_f)
        gnorm = math.sqrt(g @ g)
        if gnorm < _NEWTON_TOL:
            return xi, f, log_f, iters, gnorm
        if iters >= max_newton:
            raise ConvergenceError(
                f"fit_poly_density: Newton stalled at stage gamma={problem.gamma:g} "
                f"after {iters} steps (grad norm {gnorm:.3e})"
            )
        h = problem._hessian(f)
        try:  # Cholesky is the positive-definite check; LU may still meet a zero pivot
            np.linalg.cholesky(h)
            step = -np.linalg.solve(h, g)
        except np.linalg.LinAlgError as e:
            raise ConvergenceError(
                f"fit_poly_density: Hessian not PD at gamma={problem.gamma:g}") from e
        decrement2 = float(-g @ step)
        floor = 1.0 + abs(obj)
        if decrement2 * 0.5 <= 1e-15 * floor:
            return xi, f, log_f, iters, gnorm
        if info is not None:
            info.min_hessian_eigenvalues.append(float(np.linalg.eigvalsh(h)[0]))
        df = problem.basis @ step
        neg = df < 0
        t = min(1.0, 0.995 * float(np.min(-f[neg] / df[neg], initial=np.inf)))
        accepted = False
        while t >= 1e-14:
            cand = xi + t * step
            cand_f = problem._density(cand)
            cand_obj, cand_log = problem._objective(cand_f)
            if cand_obj < obj:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if decrement2 * 0.5 <= 1e-12 * floor:
                return xi, f, log_f, iters, gnorm
            raise ConvergenceError(
                f"fit_poly_density: line search failed at stage gamma={problem.gamma:g}"
            )
        xi, f, log_f, obj = cand, cand_f, cand_log, cand_obj
        if info is not None:
            info.objective_path.append(obj)
        iters += 1


def fit_poly_density(channel, lam_star, degree, max_newton=100, full_output=False):
    """Fit a positive polynomial density of the given degree to the tilted prior.

    Barrier continuation over gamma = 10, 1, ..., 1e-8 with a damped
    Newton solve per stage, starting from the uniform density; a stage
    stops once the gradient norm is below 1e-9 and fails after
    ``max_newton`` steps.  Deterministic: identical inputs give
    identical iterates and iteration counts, with or without
    ``full_output``, which only adds the ``PolyFitInfo`` record.
    """
    max_newton = _count(max_newton, "fit_poly_density: max_newton", 1, ValidationError)
    info = PolyFitInfo() if full_output else None
    problem = BarrierObjective(channel, lam_star, degree, _GAMMAS[0])
    xi = np.zeros(problem.degree)
    f = problem._density(xi)  # the uniform start
    log_f = np.log(f)
    for gamma in _GAMMAS:
        problem.gamma = gamma
        xi, f, log_f, iters, gnorm = _newton_stage(problem, xi, f, log_f, max_newton, info)
        if info is not None:
            info.newton_iterations.append(iters)
            info.final_gradient_norm = gnorm
    poly = problem.to_poly_density(xi)
    return (poly, info) if full_output else poly


def approx_jeffreys_constellation(p, P, M):
    """Constellation from the fitted polynomial cdf, same scaling rule."""
    M = _count(M, "approx_jeffreys_constellation: M", 2)
    return _scaled_constellation(p.inverse(_midpoints(0.0, 1.0, M)), P)


def radial_constellation_isotropic(channel, P, M_r, directions):
    """Radius-times-direction design for isotropic ball parameter spaces.

    Radii come from the inverse radial cdf on the midpoint grid; the
    caller supplies the unit direction vectors.  Points enumerate
    (radius, direction) pairs with uniform probabilities.
    """
    ps = channel.param_space
    if ps.shape != "ball":
        raise DomainError("radial_constellation_isotropic: channel is not isotropic")
    dirs = _reals(directions, "radial_constellation_isotropic: directions", error=ValidationError)
    if dirs.ndim != 2 or dirs.shape[0] == 0 or dirs.shape[1] != ps.dim:
        raise ValidationError(f"directions must be a nonempty (k, {ps.dim}) array")
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValidationError("directions must be unit vectors")
    grid = _midpoints(0.0, 1.0, _count(M_r, "radial_constellation_isotropic: M_r", 1))
    radii = prior_cdf_inverse(solve_lambda_star(channel, P).prior, grid)
    return _scaled_constellation((radii[:, None, None] * dirs).reshape(-1, ps.dim), P)
