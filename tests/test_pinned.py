"""Pinned values recorded from earlier implementations of the same quantities.

``data/pinned_design_zoo.json`` holds lambda*, JF and the inverse-cdf
constellation points (M = 16; M = 4 for energy detection) of the
benchmark's design zoo, computed by the per-call adaptive integration
that preceded the tabulated profile.  The table must reproduce them:
lambda* and the points to 1e-8 relative, JF to 1e-10.

``data/pinned_types.json`` holds the exact MI (uniform weights) and the
Blahut-Arimoto bits and weights of the benchmark's seed-0 ``types``
requests, computed by the per-composition enumeration that preceded the
vectorized type kernel.  MI must match to 1e-12 relative, BA bits to
1e-12 and BA weights to 1e-11 absolute.

``data/pinned_cli.json`` holds, for every command and flag of the CLI,
the exit code and the sha256 of stdout (and of the ``--output`` file)
recorded from the command-line front end that parsed the arguments into
a config record.  ``cli.main`` runs in a scratch directory holding the
listed input files, with relative names, so echoed paths stay the same.
"""

import contextlib
import hashlib
import io
import json
import os

import numpy as np
import pytest

import fishercap as fc
from fishercap import cli

with open(os.path.join(os.path.dirname(__file__), "data", "pinned_design_zoo.json"),
          encoding="utf-8") as _fh:
    PINNED = json.load(_fh)
with open(os.path.join(os.path.dirname(__file__), "data", "pinned_types.json"),
          encoding="utf-8") as _fh:
    PINNED_TYPES = json.load(_fh)
with open(os.path.join(os.path.dirname(__file__), "data", "pinned_cli.json"),
          encoding="utf-8") as _fh:
    PINNED_CLI = json.load(_fh)


@pytest.mark.parametrize("case", PINNED, ids=[c["label"] for c in PINNED])
def test_pinned_design_values(case):
    channel = fc.channel_from_json(case["channel"])
    s = fc.solve_lambda_star(channel, case["P"])
    assert s.lambda_star == pytest.approx(case["lambda_star"], rel=1e-8)
    assert s.jf == pytest.approx(case["jf"], rel=1e-10)
    c = fc.jeffreys_constellation(channel, case["P"], case["M"])
    np.testing.assert_allclose(c.points, case["points"], rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("case", PINNED_TYPES, ids=[c["label"] for c in PINNED_TYPES])
def test_pinned_type_values(case):
    channel = fc.channel_from_json(case["channel"])
    points = np.asarray(case["points"])
    if "mi_bits" in case:
        uniform = fc.DiscreteInput(points, np.full(points.size, 1.0 / points.size))
        mi = fc.mi_finite_output(channel, uniform, case["n_r"])
        assert mi == pytest.approx(case["mi_bits"], rel=1e-12, abs=0.0)
    else:
        dist, bits = fc.blahut_arimoto(channel, points, case["n_r"])
        assert bits == pytest.approx(case["ba_bits"], rel=0.0, abs=1e-12)
        np.testing.assert_allclose(dist.probs, case["ba_weights"], rtol=0.0, atol=1e-11)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def cli_bytes(argv):
    """Exit code and stdout sha256 (and ``--output`` file sha256) of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    got = {"rc": rc, "stdout_sha256": _sha256(out.getvalue().encode("utf-8"))}
    if "--output" in argv and rc == 0:
        with open(argv[argv.index("--output") + 1], "rb") as fh:
            got["output_sha256"] = _sha256(fh.read())
    return got


@pytest.mark.parametrize("case", PINNED_CLI["cases"], ids=[c["label"] for c in PINNED_CLI["cases"]])
def test_pinned_cli_bytes(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in PINNED_CLI["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    want = {k: v for k, v in case.items() if k not in ("label", "argv")}
    assert cli_bytes(case["argv"]) == want
