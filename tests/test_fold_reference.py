"""Folded helpers against the versions they replaced, bit for bit.

Energy detection's J now reads its density and score from the kernel it
shares with the output log-density, and ``gauss_mass`` is the one-cell
case of ``_cell_mass``.  Neither may move a bit: each is compared with
``==`` against its earlier copy, kept in ``reference_fisher.py`` and
``reference_specfun.py``, at theta = 0 and at +-inf edges too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fishercap as fc
import reference_fisher
import reference_specfun

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

energy_theta = st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 60.0))
edge = st.one_of(st.sampled_from([-np.inf, np.inf, 0.0, -0.0, 38.0, -38.0]), st.floats(-40.0, 40.0))


def test_energy_fisher_is_the_reference_on_a_long_grid():
    # 4,001 theta in four chunks of the rule, theta = 0 first
    theta = np.linspace(0.0, 100.0, 4001)
    got = fc.energy_detection_channel(100.0).fisher(theta)
    assert got.tobytes() == reference_fisher.fisher_energy(theta).tobytes()


@SETTINGS
@given(thetas=st.lists(energy_theta, min_size=1, max_size=6))
def test_energy_fisher_is_the_reference(thetas):
    theta = np.array(thetas)
    channel = fc.energy_detection_channel(60.0)
    assert channel.fisher(theta).tobytes() == reference_fisher.fisher_energy(theta).tobytes()
    assert channel.fisher(thetas[0]) == reference_fisher.fisher_energy(theta[:1])[0]


@SETTINGS
@given(pairs=st.lists(st.tuples(edge, edge), min_size=1, max_size=6))
def test_gauss_mass_is_the_reference(pairs):
    a, b = (np.array(v) for v in zip(*pairs))
    assert fc.gauss_mass(a, b).tobytes() == reference_specfun.gauss_mass(a, b).tobytes()
    assert fc.gauss_mass(a[0], b[0]) == reference_specfun.gauss_mass(a[0], b[0])
    # an edge row broadcast against a column of edges
    assert (fc.gauss_mass(a[:, None], b).tobytes()
            == reference_specfun.gauss_mass(a[:, None], b).tobytes())
