"""Pinned design values for every channel kind of the benchmark's design zoo.

``data/pinned_design_zoo.json`` holds lambda*, JF and the inverse-cdf
constellation points (M = 16; M = 4 for energy detection) computed by
the per-call adaptive integration that preceded the tabulated profile.
The table must reproduce them: lambda* and the points to 1e-8
relative, JF to 1e-10.
"""

import json
import os

import numpy as np
import pytest

import fishercap as fc

with open(os.path.join(os.path.dirname(__file__), "data", "pinned_design_zoo.json"),
          encoding="utf-8") as _fh:
    PINNED = json.load(_fh)


@pytest.mark.parametrize("case", PINNED, ids=[c["label"] for c in PINNED])
def test_pinned_design_values(case):
    channel = fc.channel_from_json(case["channel"])
    s = fc.solve_lambda_star(channel, case["P"])
    assert s.lambda_star == pytest.approx(case["lambda_star"], rel=1e-8)
    assert s.jf == pytest.approx(case["jf"], rel=1e-10)
    c = fc.jeffreys_constellation(channel, case["P"], case["M"])
    np.testing.assert_allclose(c.points, case["points"], rtol=1e-8, atol=0.0)
