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
