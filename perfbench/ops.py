"""Request handlers and result checks.

``handle`` runs one request against the library (or, for cli requests,
as a fresh ``fishercap`` process) and returns its result as plain
numbers.  ``Checker`` holds what the checks need across passes: the
benchmark's own reference computations, the CLI's expected in-process
results and the recorded reference values of the default seed.

Checks hold for any seed:

* designs: average power <= P, points inside the profile bounds and
  sorted, |M(lambda*) - P| small when lambda* > 0, the closed-form AWGN
  anchors;
* types: 0 <= MI <= log2 M, BA bits >= MI at uniform weights, MI equal
  to a brute-force sum over all output sequences where that is small,
  ML detection equal to the benchmark's own argmax over bin masses;
* cli: exit code 0, stdout valid JSON or CSV without NaN or Infinity,
  and equal to the library result for the same request.

For the default seed, results are also compared with the values
recorded from the seed code in ``reference.json`` (see
record_reference.py).
"""

import bisect
import io
import itertools
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from workloads import cli_argv

LN2 = math.log(2.0)

# Relative tolerance against the recorded reference values: far above
# run-to-run roundoff (none: the library is deterministic), far below
# any change a reader would call a different answer.
REFERENCE_RTOL = 1e-6
# The CLI prints every float with 17 significant digits (JSON with
# repr), so its output parses back to the library's value.
CLI_RTOL = 1e-12


def _floats(x):
    return [float(v) for v in x]


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _pam_points(fc, ch, m):
    hi = ch.param_space.profile_bounds[1]
    return fc.pam_constellation(ch, hi * hi, m)


def _design_result(fc, np, req):
    op = req["op"]
    ch = fc.channel_from_json(req["channel"])
    P = req["P"]
    if op in ("tilt", "anchor"):
        s = fc.solve_lambda_star(ch, P)
        out = {"lambda_star": s.lambda_star, "jf": s.jf, "m_at_star": s.m_at_star}
        if op == "tilt":
            out["capacity_bits"] = s.capacity_fn(req["n_r"])
        return out
    if op == "prior":
        s = fc.solve_lambda_star(ch, P)
        prior = fc.tilted_prior(ch, s.lambda_star, P)
        n = req["grid"]
        grid = prior.lo + (prior.hi - prior.lo) * (np.arange(n) + 0.5) / n
        return {"lambda_star": s.lambda_star, "jf": s.jf, "m_at_star": s.m_at_star,
                "density": _floats(prior.density(grid)), "width": (prior.hi - prior.lo) / n}
    if op == "jf":
        return {"jf": [float(fc.jeffreys_factor(ch, lam, P)) for lam in req["lams"]],
                "m": [float(fc.average_cost(ch, lam)) for lam in req["lams"]]}
    if op == "inverse_cdf":
        c = fc.jeffreys_constellation(ch, P, req["M"])
    elif op == "poly":
        s = fc.solve_lambda_star(ch, P)
        poly = fc.fit_poly_density(ch, s.lambda_star, req["degree"])
        c = fc.approx_jeffreys_constellation(poly, P, req["M"])
    elif op == "radial":
        c = fc.radial_constellation_isotropic(ch, P, req["M_r"], np.asarray(req["directions"]))
    else:
        raise ValueError(f"unknown design op {op!r}")
    return {"points": np.asarray(c.points).tolist(), "probs": _floats(c.probs)}


def _types_result(fc, np, req, samples):
    op = req["op"]
    ch = fc.channel_from_json(req["channel"])
    pam = _pam_points(fc, ch, req["M"])
    if op == "mi":
        return {"bits": fc.mi_finite_output(ch, pam, req["n_r"]), "points": _floats(pam.points)}
    if op == "ba":
        dist, bits = fc.blahut_arimoto(ch, pam.points, req["n_r"])
        return {"bits": bits, "weights": _floats(dist.probs), "points": _floats(pam.points)}
    if op == "detect":
        q = fc.build_quantizer(fc.default_radius_schedule(req["L"]), req["L"])
        t = fc.type_from_samples(q, samples)
        return {"index": fc.ml_detect(ch, q, t, pam), "counts": list(t.counts),
                "points": _floats(pam.points), "r": q.r}
    raise ValueError(f"unknown types op {op!r}")


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli_process(req, root):
    """The command as a fresh process: (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "fishercap.cli", *cli_argv(req)],
                          cwd=root, env=child_env(root), capture_output=True, text=True,
                          timeout=120)
    return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def run_cli_inprocess(req):
    """The command through ``cli.main`` in this process, output captured."""
    from fishercap import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(cli_argv(req))
    return {"returncode": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def handle(fc, np, req, inputs, root, in_process):
    """Run one request; the result holds plain numbers (or CLI text)."""
    if req["op"] == "cli":
        return run_cli_inprocess(req) if in_process else run_cli_process(req, root)
    if req["op"] in ("mi", "ba", "detect"):
        return _types_result(fc, np, req, inputs.get(req["id"]))
    return _design_result(fc, np, req)


def prepare_inputs(np, requests):
    """Inputs the benchmark draws itself: ML-detection samples."""
    inputs = {}
    for req in requests:
        if req["op"] == "detect":
            rng = np.random.default_rng(req["sample_seed"])
            A, m = req["channel"]["A"], req["M"]
            x = -A + 2.0 * A * req["truth"] / (m - 1)
            inputs[req["id"]] = x + rng.standard_normal(req["n_r"])
    return inputs


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _close(a, b, rtol, atol=1e-12):
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _close(a[k], b[k], rtol, atol) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(
            _close(x, y, rtol, atol) for x, y in zip(a, b))
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    a, b = float(a), float(b)
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _finite(values):
    return all(math.isfinite(v) for v in values)


def _q(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _adc_pmf(record, x):
    """p(level | x) of the quantized AWGN channel, from erfc alone."""
    edges = [-math.inf, *record["thresholds"], math.inf]
    return [_q(lo - x) - _q(hi - x) for lo, hi in zip(edges[:-1], edges[1:])]


def _brute_force_mi(record, points, n_r):
    """I(X; Y^n) in bits by summing over every output sequence."""
    rows = [_adc_pmf(record, x) for x in points]
    w = 1.0 / len(points)
    total = 0.0
    for seq in itertools.product(range(len(rows[0])), repeat=n_r):
        cond = [math.prod(row[y] for y in seq) for row in rows]
        mix = w * sum(cond)
        total += sum(w * c * math.log2(c / mix) for c in cond if c > 0.0)
    return total


def _bin_logliks(points, counts, r, L):
    """Binned AWGN log-likelihood of each candidate, overflow cell first."""
    width = 2.0 * r / L
    edges = [-r + k * width for k in range(L + 1)]
    out = []
    for x in points:
        cells = [_q(r - x) + _q(r + x)]
        cells += [_q(edges[k] - x) - _q(edges[k + 1] - x) for k in range(L)]
        ll = 0.0
        for c, p in zip(counts, cells):
            if c:
                ll = ll + c * math.log(p) if p > 0.0 else -math.inf
        out.append(ll)
    return out


def _bin_counts(samples, r, L):
    width = 2.0 * r / L
    edges = [-r + k * width for k in range(L + 1)]
    counts = [0] * (L + 1)
    for y in samples:
        if abs(y) > r:
            counts[0] += 1
        else:
            counts[min(max(bisect.bisect_left(edges, y), 1), L)] += 1
    return counts


def _check_constellation(req, res, bounds):
    P = req["P"]
    pts = res["points"]
    probs = res["probs"]
    errs = []
    if abs(sum(probs) - 1.0) > 1e-12 or min(probs) < 0.0:
        errs.append("probabilities are not a probability vector")
    flat = pts if not isinstance(pts[0], list) else [math.hypot(*p) for p in pts]
    if not _finite(flat):
        errs.append("non-finite point")
        return errs
    power = sum(p * x * x for p, x in zip(probs, flat))
    if power > P * (1.0 + 1e-9):
        errs.append(f"average power {power!r} exceeds P={P!r}")
    lo, hi = bounds
    if min(flat) < lo - 1e-12 or max(flat) > hi + 1e-12:
        errs.append(f"points leave the profile bounds [{lo}, {hi}]")
    if isinstance(pts[0], list):
        k = len(req["directions"])
        radii = flat[::k]
        if any(b < a for a, b in zip(radii, radii[1:])):
            errs.append("radii not sorted")
    elif any(b < a for a, b in zip(pts, pts[1:])):
        errs.append("points not sorted")
    return errs


def _check_tilt(req, res):
    P = req["P"]
    lam, m = res["lambda_star"], res["m_at_star"]
    errs = []
    if not (_finite([lam, res["jf"], m]) and lam >= 0.0 and res["jf"] > 0.0):
        errs.append(f"tilt or JF out of range: lambda*={lam!r} jf={res['jf']!r}")
    elif lam > 0.0 and abs(m - P) > 1e-6 * P:
        errs.append(f"|M(lambda*) - P| = {abs(m - P):.3e} at lambda*={lam!r}")
    elif lam == 0.0 and m > P * (1.0 + 1e-9):
        errs.append(f"M(0) = {m!r} exceeds P with lambda* = 0")
    return errs


def _check_design(fc, req, res):
    op = req["op"]
    bounds = fc.channel_from_json(req["channel"]).param_space.profile_bounds
    if op == "anchor":
        P = req["P"]
        errs = []
        for name, want in (("lambda_star", 1.0 / (2.0 * P * LN2)),
                           ("jf", math.sqrt(2.0 * math.pi * math.e * P))):
            if not abs(res[name] - want) <= 1e-6 * want:
                errs.append(f"{name}={res[name]!r}, closed form {want!r}")
        return errs
    if op == "tilt":
        errs = _check_tilt(req, res)
        if not math.isfinite(res["capacity_bits"]):
            errs.append("capacity is not finite")
        return errs
    if op == "prior":
        errs = _check_tilt(req, res)
        dens = res["density"]
        mass = sum(dens) * res["width"]
        if not _finite(dens) or min(dens) < 0.0 or abs(mass - 1.0) > 2e-2:
            errs.append(f"prior density invalid (midpoint mass {mass!r})")
        return errs
    if op == "jf":
        jf, m = res["jf"], res["m"]
        errs = []
        if not (_finite(jf + m) and min(jf) > 0.0):
            errs.append("JF not finite and positive")
        if any(b >= a for a, b in zip(m, m[1:])):
            errs.append("M(lambda) not strictly decreasing")
        if min(m) < 0.0 or max(m) > max(abs(bounds[0]), abs(bounds[1])) ** 2:
            errs.append("M(lambda) outside the cost range")
        return errs
    return _check_constellation(req, res, bounds)


def _parse_cli(command, text):
    """Numbers printed by a command; raises ValueError on invalid output."""
    if command in ("lambda-star", "capacity", "fit-poly", "mi"):
        def bad(token):
            raise ValueError(f"non-finite JSON token {token}")
        return json.loads(text, parse_constant=bad)
    lines = text.rstrip("\n").split("\n")
    if len(lines) < 2 or not lines[0] or "," not in lines[0]:
        raise ValueError("not a CSV table with a header")
    width = len(lines[0].split(","))
    rows = []
    for line in lines[1:]:
        cells = [float(v) for v in line.split(",")]
        if len(cells) != width or not _finite(cells):
            raise ValueError(f"bad CSV row {line!r}")
        rows.append(cells)
    return rows


def expected_cli(fc, np, req):
    """The library's result for a cli request, in the shape the CLI prints."""
    cmd, p = req["command"], req["params"]
    ch = fc.channel_from_json(req["channel"]) if req["channel"] is not None else None
    if cmd == "fisher":
        lo, hi = ch.param_space.profile_bounds
        n = p["grid"]
        grid = lo + (hi - lo) * (np.arange(n) + 0.5) / n
        return [[float(t), float(v)] for t, v in zip(grid, ch.fisher(grid))]
    if cmd == "jf":
        lo, hi, n = p["lambda_grid"].split(":")
        lams = np.linspace(float(lo), float(hi), int(n))
        return [[float(lam), float(fc.jeffreys_factor(ch, lam, p["P"])),
                 float(fc.average_cost(ch, lam))] for lam in lams]
    if cmd == "quant-loss":
        res = fc.scaling_study(ch, fc.default_radius_schedule, p["L_list"])
        return [[float(L), float(e), float(res.slope)] for L, e in zip(res.L_values, res.e_values)]
    if cmd == "fisher-rate":
        acov = fc.ar1_autocovariance(p["acov"]["rho"])
        limit = fc.fisher_rate_limit(acov)
        return [[float(n), float(fc.fisher_rate_finite(acov, n)), float(limit)]
                for n in p["n_list"]]
    s = fc.solve_lambda_star(ch, p["P"])
    if cmd == "prior":
        prior = fc.tilted_prior(ch, s.lambda_star, p["P"])
        n = p["grid"]
        grid = prior.lo + (prior.hi - prior.lo) * (np.arange(n) + 0.5) / n
        return [[float(t), float(d)] for t, d in zip(grid, prior.density(grid))]
    if cmd == "lambda-star":
        return {"lambda_star": s.lambda_star, "jf": s.jf, "avg_cost_at_star": s.m_at_star}
    if cmd == "capacity":
        return {"lambda_star": s.lambda_star, "jf": s.jf, "capacity_bits": s.capacity_fn(p["nr"])}
    if cmd == "constellation":
        c = fc.jeffreys_constellation(ch, p["P"], p["M"])
        return [[float(i), float(x), float(w)] for i, (x, w) in enumerate(zip(c.points, c.probs))]
    if cmd == "fit-poly":
        poly, info = fc.fit_poly_density(ch, s.lambda_star, p["degree"], full_output=True)
        return {"lambda_star": s.lambda_star, "coeffs": _floats(poly.coeffs),
                "support": _floats(poly.support), "newton_iterations": info.newton_iterations,
                "final_gradient_norm": info.final_gradient_norm}
    if cmd == "mi":
        prior = fc.tilted_prior(ch, s.lambda_star, p["P"])
        dist = fc.discretize_prior(prior, p["prior_grid"])
        return {"lambda_star": s.lambda_star, "mi_bits": fc.mi_finite_output(ch, dist, p["nr"])}
    raise ValueError(f"unknown command {cmd!r}")


class Checker:
    """Checks results; caches what it computes once per run."""

    def __init__(self, fc, np, reference=None):
        self.fc, self.np = fc, np
        self.reference = reference  # request id -> recorded result, or None
        self._cache = {}

    def expected(self, req):
        """Benchmark-side value a check compares with, computed once."""
        if req["id"] not in self._cache:
            self._cache[req["id"]] = self._compute_expected(req)
        return self._cache[req["id"]]

    def _compute_expected(self, req):
        fc, np = self.fc, self.np
        if req["op"] == "cli":
            return expected_cli(fc, np, req)
        if req["op"] == "ba":
            ch = fc.channel_from_json(req["channel"])
            return fc.mi_finite_output(ch, _pam_points(fc, ch, req["M"]), req["n_r"])
        if req["op"] == "mi" and req.get("brute_force"):
            pam = _pam_points(fc, fc.channel_from_json(req["channel"]), req["M"])
            return _brute_force_mi(req["channel"], _floats(pam.points), req["n_r"])
        return None

    def comparable(self, req, res):
        """The numbers of a result that the reference file records."""
        if req["op"] == "cli":
            return self.expected(req)
        return res

    def check(self, req, res, samples=None):
        """Failure messages for one result (empty when it passes)."""
        if isinstance(res, BaseException):
            return [f"raised {type(res).__name__}: {res}"]
        op = req["op"]
        if op == "cli":
            errs = self._check_cli(req, res)
        elif op in ("mi", "ba", "detect"):
            errs = self._check_types(req, res, samples)
        else:
            errs = _check_design(self.fc, req, res)
        if self.reference is not None and "known_defect" not in req:
            ref = self.reference.get(req["id"])
            if ref is None:
                errs.append("no reference value recorded")
            elif not _close(self.comparable(req, res), ref, REFERENCE_RTOL, 1e-9):
                errs.append("differs from the recorded reference value")
        return errs

    def _check_cli(self, req, res):
        if res["returncode"] != 0:
            return [f"exit code {res['returncode']}: {res['stderr'].strip()[-300:]}"]
        try:
            got = _parse_cli(req["command"], res["stdout"])
        except ValueError as e:
            return [f"invalid output: {e}"]
        want = self.expected(req)
        if isinstance(want, dict):
            got = {k: got.get(k) for k in want}
        if not _close(got, want, CLI_RTOL, 0.0):
            return ["output differs from the in-process library result"]
        return []

    def _check_types(self, req, res, samples):
        op = req["op"]
        m = req["M"]
        errs = []
        if op in ("mi", "ba"):
            bits = res["bits"]
            if not (math.isfinite(bits) and 0.0 <= bits <= math.log2(m) + 1e-12):
                errs.append(f"MI {bits!r} outside [0, log2 M]")
        if op == "mi" and req.get("brute_force"):
            want = self.expected(req)
            if not abs(res["bits"] - want) <= 1e-9 * max(want, 1e-300):
                errs.append(f"MI {res['bits']!r} differs from the brute-force sum {want!r}")
        if op == "ba":
            w = res["weights"]
            if min(w) < 0.0 or abs(sum(w) - 1.0) > 1e-9:
                errs.append("BA weights are not a probability vector")
            uniform = self.expected(req)
            if res["bits"] < uniform - 1e-9:
                errs.append(f"BA bits {res['bits']!r} below MI at uniform weights {uniform!r}")
        if op == "detect":
            L = req["L"]
            r = 3.0 + math.sqrt(math.log(L))  # the default overflow radius
            if abs(res["r"] - r) > 1e-12:
                errs.append(f"overflow radius {res['r']!r}, expected {r!r}")
            A = req["channel"]["A"]
            grid = [-A + 2.0 * A * k / (m - 1) for k in range(m)]
            if not _close(res["points"], grid, 1e-12):
                errs.append("PAM points differ from the grid the samples were drawn on")
            counts = _bin_counts(samples, r, L)
            if res["counts"] != counts:
                errs.append("type counts differ from the benchmark's binning")
            ll = _bin_logliks(res["points"], counts, r, L)
            best = max(ll)
            got = ll[res["index"]]
            if not (got == best or abs(got - best) <= 1e-9 * abs(best)):
                errs.append(f"detected index {res['index']} is not the ML choice")
        return errs
