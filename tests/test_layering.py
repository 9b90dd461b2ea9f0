"""The package's modules import one another in layers, lowest first; a test, not a convention.

Each module's imports from the package are read with ``ast``, inside
functions too:

* ``errors`` imports nothing from the package;
* ``specfun``, ``quad`` and ``noniid`` import only ``errors``;
* ``channels`` imports only those four;
* ``jeffreys`` imports only ``errors``, ``quad`` and ``specfun``;
* ``mutual_info``, ``constellation`` and ``receiver_quant`` import only
  the layers below them, and none of one another;
* ``cli`` and ``__init__`` may import anything.
"""

import ast
import os

import pytest

import fishercap

_PACKAGE = os.path.dirname(fishercap.__file__)
_LOWER = {"errors", "specfun", "quad", "noniid", "channels", "jeffreys"}
ALLOWED = {
    "errors": set(),
    "specfun": {"errors"},
    "quad": {"errors"},
    "noniid": {"errors"},
    "channels": {"errors", "specfun", "quad", "noniid"},
    "jeffreys": {"errors", "quad", "specfun"},
    "mutual_info": _LOWER,
    "constellation": _LOWER,
    "receiver_quant": _LOWER,
}
ANYTHING = {"cli", "__init__"}


def _package_imports(module):
    """The package modules that ``module`` imports, by relative or absolute name."""
    with open(os.path.join(_PACKAGE, f"{module}.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import channels as _ch
                out.update(alias.name for alias in node.names)
            elif node.level == 1 or (node.module or "").startswith("fishercap."):
                out.add(node.module.removeprefix("fishercap.").split(".")[0])
            elif node.module == "fishercap":
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("fishercap."))
    return out


def test_every_module_has_a_layer():
    modules = {f[:-3] for f in os.listdir(_PACKAGE) if f.endswith(".py")}
    assert modules == set(ALLOWED) | ANYTHING


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_lower_layers(module):
    assert _package_imports(module) <= ALLOWED[module]


def test_the_reader_sees_each_import_form():
    assert _package_imports("cli") >= {"channels", "noniid", "errors", "quad"}
    assert _package_imports("constellation") >= {"channels", "errors", "jeffreys", "quad", "specfun"}


# Every public name of the package: 65 exports and the 9 modules they come from.  A new
# export, or one made private, changes this list on purpose.
PUBLIC = [
    "Autocovariance", "BudgetError", "ChannelSpec", "ConvergenceError", "DegenerateChannelError",
    "DiscreteInput", "DomainError", "FisherCapError", "JeffreysSolution", "ParameterSpace",
    "PolyDensity", "PositivityError", "Quantizer1D", "RangeError", "ScalingResult", "TiltedPrior",
    "ToleranceError", "TypeIndex", "UnboundedTiltError", "ValidationError",
    "approx_jeffreys_constellation", "approx_loglik", "ar1_autocovariance", "average_cost",
    "awgn_channel", "bessel_i01_scaled", "blahut_arimoto", "build_quantizer", "capacity_loss_eL",
    "channel_from_json", "channels", "clipped_awgn_channel", "constellation",
    "correlated_awgn_channel", "default_radius_schedule", "discretize_prior",
    "dithered_onebit_channel", "energy_detection_channel", "errors", "exact_loglik",
    "exp_integral_e1", "fisher_rate_finite", "fisher_rate_limit", "fit_poly_density", "gauss_mass",
    "gauss_phi_q", "integrate_interval", "jeffreys", "jeffreys_constellation", "jeffreys_factor",
    "log_gamma", "mi_finite_output", "mi_from_pmf_matrix", "mi_gaussian_sufficient",
    "mimo_imperfect_csi_channel", "ml_detect", "mutual_info", "noncoherent_channel", "noniid",
    "pam_constellation", "poisson_channel", "prior_cdf_inverse", "quad", "quantized_awgn_channel",
    "quantized_fisher", "radial_constellation_isotropic", "receiver_quant", "scaling_study",
    "solve_lambda_star", "specfun", "tilted_prior", "truncated_awgn_channel", "type_from_samples",
    "white_noise_autocovariance",
]


def test_the_public_names_are_the_listed_ones():
    assert len(PUBLIC) == len(set(PUBLIC)) == 74
    # the command module joins them once something imports it
    assert {name for name in dir(fishercap) if not name.startswith("_")} - {"cli"} == set(PUBLIC)
