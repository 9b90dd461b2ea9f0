import math

import numpy as np
import pytest

from fishercap import quad as quad_module
from fishercap import specfun
from fishercap.errors import DomainError, ToleranceError
from fishercap.quad import (DEFAULT_RULE, NODES, WEIGHTS, QuadRule, _pointwise, _quad, _Root,
                            integrate_interval)


def test_constant_integrand():
    value, err = integrate_interval(lambda x: np.ones_like(x), -3.0, 3.0)
    assert value == pytest.approx(6.0, abs=1e-13)
    assert err >= 0


def test_gaussian_density_mass():
    def phi(x):
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    value, _ = integrate_interval(phi, -8.0, 8.0)
    _, q8 = specfun.gauss_phi_q(8.0)
    assert value == pytest.approx(1.0 - 2.0 * q8, abs=1e-12)


def test_inverse_sqrt_endpoint_singularity():
    leaves = _quad(_pointwise(lambda t: 1.0 / np.sqrt(t)), _Root(0.0, 1.0, ()),
                   QuadRule(abs_tol=1e-10, rel_tol=1e-9))
    assert leaves.value == pytest.approx(2.0, abs=1e-8)


def test_linearity_on_random_smooth_functions():
    rng = np.random.default_rng(7)
    rule = DEFAULT_RULE
    for _ in range(5):
        c = rng.normal(size=4)
        a, b = -1.5, 2.0

        def f(x):
            return np.polynomial.polynomial.polyval(x, c)

        def g(x):
            return np.sin(3.0 * x) + 0.2 * x * x

        alpha, beta = rng.normal(size=2)
        lhs, _ = integrate_interval(lambda x: alpha * f(x) + beta * g(x), a, b)
        fa, _ = integrate_interval(f, a, b)
        ga, _ = integrate_interval(g, a, b)
        rhs = alpha * fa + beta * ga
        tol = 2.0 * max(rule.abs_tol, rule.rel_tol * abs(rhs))
        assert abs(lhs - rhs) <= tol + 1e-14


def test_interval_additivity():
    def f(x):
        return np.exp(-x) * np.cos(4.0 * x)

    whole, _ = integrate_interval(f, -1.0, 2.5)
    left, _ = integrate_interval(f, -1.0, 0.3)
    right, _ = integrate_interval(f, 0.3, 2.5)
    assert whole == pytest.approx(left + right, abs=2e-12)


def test_degenerate_and_invalid_intervals():
    assert integrate_interval(lambda x: x, 1.0, 1.0) == (0.0, 0.0)
    with pytest.raises(DomainError):
        integrate_interval(lambda x: x, 2.0, 1.0)
    with pytest.raises(DomainError):
        integrate_interval(lambda x: x, 0.0, math.inf)


def test_tolerance_failure_carries_best_estimate(monkeypatch):
    monkeypatch.setattr(quad_module, "_MAX_SUBDIVISIONS", 4)
    rule = QuadRule(abs_tol=1e-15, rel_tol=1e-15)
    with pytest.raises(ToleranceError) as exc:
        _quad(_pointwise(lambda x: np.sin(50.0 * x) ** 2), _Root(0.0, 10.0, ()), rule)
    assert exc.value.best is not None
    assert exc.value.err_est > 0


def test_nonfinite_integrand_rejected():
    with np.errstate(divide="ignore"), pytest.raises(DomainError):
        integrate_interval(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)


def test_quad_leaves_sum_to_integrate_interval():
    def f(x):
        return np.exp(-x) * np.cos(4.0 * x)

    leaves = _quad(_pointwise(f), _Root(-1.0, 2.5, (0.3, 7.0)), DEFAULT_RULE)
    assert np.all(leaves.a[1:] == leaves.b[:-1])
    assert leaves.a[0] == -1.0 and leaves.b[-1] == 2.5 and 0.3 in leaves.a
    assert np.array_equal(leaves.values, f(leaves.x))
    value, _ = integrate_interval(f, -1.0, 2.5)
    assert leaves.value == pytest.approx(value, abs=2e-12)


def test_quad_refuses_a_multi_row_integrand():
    # one scalar integrand: (n,) nodes in, (n,) values out
    scales = np.array([1.0, 30.0])[:, None]
    with pytest.raises(DomainError, match="integrand must map"):
        _quad(_pointwise(lambda x: np.exp(-scales * x * x)), _Root(-1.0, 1.0, ()), DEFAULT_RULE)
    with pytest.raises(DomainError, match="integrand must map"):
        integrate_interval(lambda x: np.exp(-scales * x * x), -1.0, 1.0)


def test_quad_calls_the_integrand_once_per_step():
    for f, a, b, cuts in ((lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, ()),
                          (lambda x: np.exp(-30.0 * x * x) * np.cos(4.0 * x), -1.0, 2.5, (0.3,))):
        sizes = []
        counted = _pointwise(lambda x: sizes.append(x.size) or f(x))
        leaves = _quad(counted, _Root(a, b, cuts), DEFAULT_RULE)
        # one call for the roots (each a coarse panel and its two halves), one per bisection
        roots = 1 + len(cuts)
        bisections = leaves.a.size // 2 - roots
        assert bisections > 0
        assert sizes == [3 * 15 * roots] + [4 * 15] * bisections
        # the same arrays as an evaluation of the same partition one panel at a time
        half = 0.5 * (leaves.b - leaves.a)
        for i in range(leaves.a.size):
            x = 0.5 * (leaves.a[i] + leaves.b[i]) + half[i] * NODES
            y = f(x)
            assert leaves.x[i].tobytes() == x.tobytes()
            assert leaves.values[i].tobytes() == y.tobytes()
            assert leaves.sums[i].tobytes() == (half[i] * (y @ WEIGHTS)).tobytes()
