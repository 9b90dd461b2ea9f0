import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special

import fishercap
from fishercap import specfun
from fishercap.errors import DomainError

DATA = os.path.join(os.path.dirname(__file__), "data", "specfun_oracle.json")


def test_phi_q_center_values():
    phi, q = specfun.gauss_phi_q(0.0)
    assert phi == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)
    assert q == 0.5


def test_q_at_one_matches_oracle():
    _, q = specfun.gauss_phi_q(1.0)
    assert q == pytest.approx(0.1586552539314570514, rel=1e-12)


def test_q_deep_tail():
    _, q = specfun.gauss_phi_q(10.0)
    assert q == pytest.approx(7.619853024160527e-24, rel=1e-11)
    assert q > 0
    _, q38 = specfun.gauss_phi_q(38.0)
    assert q38 > 0  # no underflow to zero at the contract edge


def test_q_symmetry_grid():
    x = np.linspace(-12, 12, 97)
    _, q = specfun.gauss_phi_q(x)
    _, qm = specfun.gauss_phi_q(-x)
    assert np.all(np.abs(q + qm - 1.0) < 1e-12)


def test_q_derivative_is_minus_phi():
    h = 1e-5
    for x in [-3.0, -0.7, 0.0, 0.4, 1.9, 4.2]:
        _, qp = specfun.gauss_phi_q(x + h)
        _, qm = specfun.gauss_phi_q(x - h)
        phi, _ = specfun.gauss_phi_q(x)
        fd = (qp - qm) / (2 * h)
        assert fd == pytest.approx(-phi, rel=1e-6)


def test_gauss_mass_matches_q_difference():
    m = specfun.gauss_mass(-1.0, 2.0)
    _, q1 = specfun.gauss_phi_q(-1.0)
    _, q2 = specfun.gauss_phi_q(2.0)
    assert m == pytest.approx(q1 - q2, rel=1e-14)
    assert specfun.gauss_mass(-np.inf, np.inf) == pytest.approx(1.0)
    # thin far cell keeps relative accuracy through the complement form
    thin = specfun.gauss_mass(-20.5, -20.0)
    _, q20 = specfun.gauss_phi_q(20.0)
    _, q205 = specfun.gauss_phi_q(20.5)
    assert thin == pytest.approx(q20 - q205, rel=1e-12)


def test_bessel_at_zero_and_one():
    i0s, i1s = specfun.bessel_i01_scaled(0.0)
    assert (i0s, i1s) == (1.0, 0.0)
    i0s, i1s = specfun.bessel_i01_scaled(1.0)
    assert i0s == pytest.approx(1.2660658777520084 * math.exp(-1.0), rel=1e-12)
    assert i1s == pytest.approx(0.5651591039924851 * math.exp(-1.0), rel=1e-12)


def test_bessel_asymptotic_and_ratio():
    i0s, i1s = specfun.bessel_i01_scaled(100.0)
    assert i0s == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 100.0), rel=2e-3)
    x = np.linspace(0.0, 60.0, 121)
    i0s, i1s = specfun.bessel_i01_scaled(x)
    assert np.all(i1s <= i0s)
    ratio = np.where(i0s > 0, i1s / i0s, 0.0)
    assert np.all(ratio >= 0.0) and np.all(ratio < 1.0)
    assert np.all(np.diff(ratio) > -1e-14)  # monotone in x


def test_e1_values_and_bounds():
    assert specfun.exp_integral_e1(1.0) == pytest.approx(0.21938393439552029, rel=1e-12)
    assert specfun.exp_integral_e1(0.5) == pytest.approx(0.55977359477616081, rel=1e-12)
    assert specfun.exp_integral_e1(20.0) < math.exp(-20.0) / 20.0
    x = np.linspace(0.1, 30.0, 64)
    e1 = specfun.exp_integral_e1(x)
    assert np.all(np.exp(-x) / (x + 1.0) < e1)
    assert np.all(e1 < np.exp(-x) / x)
    assert np.all(np.diff(e1) < 0)


def test_log_gamma_identities():
    assert specfun.log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert specfun.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert specfun.log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_phi_q_rejects_nonfinite(bad):
    with pytest.raises(DomainError):
        specfun.gauss_phi_q(bad)


def test_domain_errors():
    with pytest.raises(DomainError):
        specfun.bessel_i01_scaled(-0.1)
    with pytest.raises(DomainError):
        specfun.exp_integral_e1(0.0)
    with pytest.raises(DomainError):
        specfun.log_gamma(-2.0)


def _load_table(name):
    with open(DATA, "r", encoding="utf-8") as fh:
        return [(float(x), float(v)) for x, v in json.load(fh)[name]]


def test_oracle_table_q():
    for x, want in _load_table("gauss_q"):
        _, q = specfun.gauss_phi_q(x)
        assert q == pytest.approx(want, rel=1e-10), f"Q({x})"


def test_oracle_table_phi():
    for x, want in _load_table("gauss_phi"):
        phi, _ = specfun.gauss_phi_q(x)
        assert phi == pytest.approx(want, rel=1e-10), f"phi({x})"


def test_oracle_table_bessel():
    for x, want in _load_table("i0e"):
        i0s, _ = specfun.bessel_i01_scaled(x)
        assert i0s == pytest.approx(want, rel=1e-10), f"i0e({x})"
    for x, want in _load_table("i1e"):
        _, i1s = specfun.bessel_i01_scaled(x)
        assert i1s == pytest.approx(want, rel=1e-10, abs=1e-300), f"i1e({x})"


def test_oracle_table_e1():
    for x, want in _load_table("e1"):
        assert specfun.exp_integral_e1(x) == pytest.approx(want, rel=1e-10), f"E1({x})"


@pytest.mark.parametrize("n_r", [1, 2, 30, 100, 1000])
def test_log_gamma_is_math_lgamma(n_r):
    # the table of ln k! that mutual_info._type_blocks builds, element by element
    x = np.arange(n_r + 1) + 1.0
    got = specfun.log_gamma(x)
    assert got.dtype == float and got.shape == x.shape
    assert got.tolist() == [math.lgamma(v) for v in x.tolist()]
    assert specfun.log_gamma(x.reshape(1, -1)).tolist() == [got.tolist()]
    assert specfun.log_gamma(np.float64(n_r) + 0.5) == math.lgamma(n_r + 0.5)


def test_oracle_table_log_gamma():
    for x, want in _load_table("log_gamma"):
        assert specfun.log_gamma(x) == pytest.approx(want, rel=1e-10, abs=1e-13), f"lnG({x})"


def test_reference_generator_reproduces_committed_table():
    mpmath = pytest.importorskip("mpmath")  # noqa: F841  (reference needs it)
    import reference_specfun as ref

    with open(DATA, "r", encoding="utf-8") as fh:
        committed = json.load(fh)
    fresh = ref.generate_tables()
    for name, rows in committed.items():
        for (x0, v0), (x1, v1) in zip(rows, fresh[name]):
            assert x0 == x1
            assert float(v0) == pytest.approx(float(v1), rel=1e-25, abs=1e-300)


# --- the numpy kernels against scipy (a test dependency only) ----------------

def _max_rel(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


def test_erfcx_matches_scipy():
    for x in (np.linspace(0.0, 40.0, 40001), np.geomspace(1e-8, 1e6, 40001)):
        assert _max_rel(specfun._erfcx(x), special.erfcx(x)) <= 2e-15
    assert specfun._erfcx(np.array([np.inf]))[0] == 0.0
    assert specfun._erfcx(np.array([0.0]))[0] == 1.0
    assert specfun.gauss_phi_q(0.0)[1] == 0.5 and specfun.gauss_mass(-np.inf, 0.0) == 0.5


def test_bessel_pair_matches_scipy():
    x = np.concatenate([np.linspace(0.0, 1e5, 100001), np.geomspace(1e-12, 1e-4, 2001),
                        np.linspace(0.0, 50.0, 20001)])
    i0s, i1s = specfun.bessel_i01_scaled(x)
    assert _max_rel(i0s, special.i0e(x)) <= 1e-14
    live = x > 0
    assert _max_rel(i1s[live], special.i1e(x[live])) <= 1e-14
    assert np.all(i1s[~live] == 0.0)


def test_e1_and_log_gamma_match_scipy_and_oracle():
    x = np.geomspace(0.01, 30.0, 20001)
    assert _max_rel(specfun.exp_integral_e1(x), special.exp1(x)) <= 1e-14
    for xv, want in _load_table("e1"):
        assert specfun.exp_integral_e1(xv) == pytest.approx(want, rel=1e-14)
    # ln Gamma vanishes at 1 and 2: relative error where |ln Gamma| >= 1, absolute below
    x = np.geomspace(0.05, 200.5, 20001)
    got, want = specfun.log_gamma(x), special.gammaln(x)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1.0))
    for xv, want in _load_table("log_gamma"):
        assert specfun.log_gamma(xv) == pytest.approx(want, rel=1e-14, abs=1e-16)


def test_no_scipy_at_runtime(tmp_path):
    # a fresh process: importing the package and running a clipped capacity load no scipy module
    code = (
        "import sys; import fishercap; from fishercap import cli; "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'import'; "
        "rc = cli.main(['capacity', '--channel', '{\"kind\": \"clipped_awgn\", \"A\": 3, \"B\": 1.5}', "
        "'--P', '1.0', '--nr', '64']); "
        "assert rc == 0, rc; "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'capacity'"
    )
    src = os.path.dirname(os.path.dirname(fishercap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
