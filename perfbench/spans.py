"""Per-layer spans for the fishercap modules, installed from outside.

``install`` replaces every public function of each layer module, in
every fishercap module that binds it, with a wrapper that records a
span: its key (layer and function), start and end, the enclosing span
and the request it belongs to.  Several modules import names directly
(``jeffreys`` and ``mutual_info`` bind ``integrate_interval``,
``channels`` binds ``integrate_semiinf`` and the ``specfun`` functions,
``constellation`` binds the ``jeffreys`` functions), so a wrapper
installed only on the defining module would miss their calls.

Spans stay in memory; ``layer_metrics`` reduces them to the per-layer
metrics and ``write_csv`` dumps them.  A span's self time is its
duration minus the time covered by its child spans, so the energy
detection integrals that run inside a profile integrand are not
counted twice.  ``uninstall`` restores the original functions.
"""

import csv
import dataclasses
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("specfun", "quad", "channels", "jeffreys", "constellation",
          "mutual_info", "receiver_quant", "noniid", "cli")

# span record slots
KEY, PARENT, REQUEST, T0, T1, CHILD_S, WORK, EXTRA = range(8)


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []

    def top_key(self):
        return self.spans[self._stack[-1]][KEY] if self._stack else None

    def call(self, key, fn, args, kwargs, prepare=None, finish=None):
        parent = self._stack[-1] if self._stack else -1
        rec = [key, parent, self.request, 0.0, 0.0, 0.0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        if prepare is not None:
            args, kwargs = prepare(rec, args, kwargs)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            rec[T0], rec[T1] = t0, t1
            if parent >= 0:
                self.spans[parent][CHILD_S] += t1 - t0
        return finish(rec, out) if finish is not None else out


def _size(x):
    return int(getattr(x, "size", 1))


def _wrap_spec(tracer, spec):
    """The channel with its per-point callables recorded as channel spans."""
    dim = spec.param_space.dim
    replaced = {}
    for attr in ("cost", "fisher", "sqrt_det_fisher", "output_pmf"):
        fn = getattr(spec, attr)
        if fn is None:
            continue
        # fisher of a ball space takes one full d-vector per point
        per_point = dim if (attr == "fisher" and spec.param_space.shape == "ball") else 1

        def wrapped(theta, *args, _fn=fn, _key=f"channels.spec:{spec.kind}.{attr}",
                    _per=per_point, **kwargs):
            def prepare(rec, a, k):
                rec[WORK] = _size(theta) // _per
                return a, k
            return tracer.call(_key, _fn, (theta,) + args, kwargs, prepare)

        replaced[attr] = wrapped
    return dataclasses.replace(spec, **replaced)


def _wrapper(tracer, layer, name, fn, site):
    key = f"{layer}.{name}"
    if layer == "quad":
        # Call site decides the kind: channels runs the semi-infinite
        # Fisher integrals, everything else integrates profiles.
        key = "quad.inner" if site == "fishercap.channels" else "quad.profile"

        def quad_wrapper(f, *args, **kwargs):
            if tracer.top_key() in ("quad.inner", "quad.profile"):
                return fn(f, *args, **kwargs)  # integrate_semiinf delegating

            def prepare(rec, a, k):
                def counted(x):
                    rec[WORK] += len(x)
                    return f(x)
                return (counted,) + a, k
            return tracer.call(key, fn, args, kwargs, prepare)
        return quad_wrapper

    finish = None
    prepare = None
    sig = inspect.signature(fn)
    if layer == "channels" and name.endswith("_channel"):
        def finish(rec, spec):
            return _wrap_spec(tracer, spec)
    elif key == "channels.fisher_energy_detection":
        def prepare(rec, a, k):
            rec[WORK] = _size(sig.bind(*a, **k).arguments["theta"])
            return a, k
    elif key == "mutual_info.mi_from_pmf_matrix":
        def prepare(rec, a, k):
            bound = sig.bind(*a, **k).arguments
            rows, parts = getattr(bound["pmf"], "shape", (0, 0))
            rec[WORK] = _types(bound["n_r"], parts)
            rec[EXTRA] = rows
            return a, k
    elif key == "mutual_info.blahut_arimoto":
        def prepare(rec, a, k):
            bound = sig.bind(*a, **k).arguments
            parts = bound["channel"].alphabet_size
            rec[EXTRA] = (_types(bound["n_r"], parts), len(bound["points"]))
            return a, k
    elif key == "receiver_quant.capacity_loss_eL":
        def prepare(rec, a, k):
            bound = sig.bind(*a, **k)
            bound.apply_defaults()
            rec[WORK] = bound.arguments["q"].num_cells * int(bound.arguments["grid_size"])
            return a, k
    elif key == "noniid.fisher_rate_finite":
        def prepare(rec, a, k):
            rec[WORK] = int(sig.bind(*a, **k).arguments["n"])
            return a, k

    if "full_output" in sig.parameters:
        # Iteration counts come from the full output; hand the caller
        # only what it asked for.
        base_prepare = prepare

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            wanted = bool(bound.arguments.get("full_output", False))
            bound.arguments["full_output"] = True

            def finish_full(rec, out):
                info = out[-1]
                rec[WORK] = info["iterations"] if isinstance(info, dict) else info.total_iterations
                return out if wanted else (out[0] if len(out) == 2 else out[:-1])
            return tracer.call(key, fn, bound.args, bound.kwargs, base_prepare, finish_full)
        return wrapper

    def wrapper(*args, **kwargs):
        return tracer.call(key, fn, args, kwargs, prepare, finish)
    return wrapper


def _types(n_r, parts):
    return math.comb(int(n_r) + parts - 1, parts - 1) if parts > 1 else 1


def install(tracer):
    """Wrap every public layer function; returns the undo list for ``uninstall``."""
    layers = {layer: importlib.import_module(f"fishercap.{layer}") for layer in LAYERS}
    modules = {name: mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "fishercap" or name.startswith("fishercap."))}
    undo = []
    for layer, mod in layers.items():
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            for site, other in modules.items():
                if getattr(other, name, None) is fn:
                    undo.append((other, name, fn))
                    setattr(other, name, _wrapper(tracer, layer, name, fn, site))
    return undo


def uninstall(undo):
    for mod, name, fn in reversed(undo):
        setattr(mod, name, fn)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _has_ancestor(spans, i, key):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][KEY] == key:
            return True
        p = spans[p][PARENT]
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer counts and times of one traced pass, keyed by metric name."""
    calls = Counter()
    dur = defaultdict(float)
    work = Counter()
    layer_self = defaultdict(float)
    for rec in spans:
        key = rec[KEY]
        d = rec[T1] - rec[T0]
        calls[key] += 1
        dur[key] += d
        work[key] += rec[WORK]
        layer_self[key.split(".", 1)[0]] += d - rec[CHILD_S]

    spec_points = {k: v for k, v in work.items()
                   if k.startswith("channels.spec:") and k.endswith(("fisher", "sqrt_det_fisher"))}
    energy_points = sum(v for k, v in spec_points.items()
                        if k.startswith("channels.spec:energy_detection."))
    energy_evals = work["channels.fisher_energy_detection"]
    tilt_avg = sum(1 for i, r in enumerate(spans) if r[KEY] == "jeffreys.average_cost"
                   and _has_ancestor(spans, i, "jeffreys.solve_lambda_star"))
    cdf_in_inverse = sum(1 for i, r in enumerate(spans) if r[KEY] == "jeffreys.prior_cdf"
                         and _has_ancestor(spans, i, "jeffreys.prior_cdf_inverse"))
    mi_types = work["mutual_info.mi_from_pmf_matrix"]
    mi_evals = sum(r[WORK] * r[EXTRA] for r in spans
                   if r[KEY] == "mutual_info.mi_from_pmf_matrix")
    ba = [r[EXTRA] for r in spans if r[KEY] == "mutual_info.blahut_arimoto"]
    ba_iters = work["mutual_info.blahut_arimoto"]
    return {
        "quad.calls.profile": calls["quad.profile"],
        "quad.evals.profile": work["quad.profile"],
        "quad.calls.inner": calls["quad.inner"],
        "quad.evals.inner": work["quad.inner"],
        "quad.self_s": layer_self["quad"],
        "channels.fisher_points": sum(spec_points.values()),
        "channels.energy_fisher_points": energy_points,
        "channels.memo_hit_ratio": 1.0 - energy_evals / energy_points if energy_points else 0.0,
        "channels.self_s": layer_self["channels"],
        "specfun.calls": sum(v for k, v in calls.items() if k.startswith("specfun.")),
        "specfun.self_s": layer_self["specfun"],
        "jeffreys.tilt_iters": _ratio(tilt_avg, calls["jeffreys.solve_lambda_star"]),
        "jeffreys.solve_s": dur["jeffreys.solve_lambda_star"],
        "jeffreys.cdf_calls": calls["jeffreys.prior_cdf"],
        "jeffreys.cdf_per_point": _ratio(cdf_in_inverse, calls["jeffreys.prior_cdf_inverse"]),
        "jeffreys.inverse_s": dur["jeffreys.prior_cdf_inverse"],
        "constellation.newton_iters": work["constellation.fit_poly_density"],
        "constellation.fit_s": dur["constellation.fit_poly_density"],
        "constellation.design_s": (dur["constellation.jeffreys_constellation"]
                                   + dur["constellation.approx_jeffreys_constellation"]
                                   + dur["constellation.radial_constellation_isotropic"]),
        "mutual_info.types": mi_types + sum(t for t, _ in ba),
        "mutual_info.loglik_evals": mi_evals + sum(t * m for t, m in ba),
        "mutual_info.mi_s": dur["mutual_info.mi_from_pmf_matrix"],
        "mutual_info.ba_iters": ba_iters,
        "mutual_info.ba_s_per_iter": _ratio(dur["mutual_info.blahut_arimoto"], ba_iters),
        # log_lik and lik, float64, as materialized by the largest BA request
        "mutual_info.ba_matrix_mb": max((2 * t * m * 8 / 1e6 for t, m in ba), default=0.0),
        "receiver_quant.detect_s": dur["receiver_quant.ml_detect"],
        "receiver_quant.detections": calls["receiver_quant.ml_detect"],
        "receiver_quant.eL_s": dur["receiver_quant.capacity_loss_eL"],
        "receiver_quant.cells": work["receiver_quant.capacity_loss_eL"],
        "noniid.rate_s": dur["noniid.fisher_rate_finite"],
        "noniid.order_sum": work["noniid.fisher_rate_finite"],
    }


def write_csv(spans, path):
    """One row per span: request, parent, key, start, end, self seconds, work."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["span", "request", "parent", "key", "t0_s", "t1_s", "self_s", "work"])
        for i, r in enumerate(spans):
            out.writerow([i, r[REQUEST], r[PARENT], r[KEY], f"{r[T0]:.9f}", f"{r[T1]:.9f}",
                          f"{r[T1] - r[T0] - r[CHILD_S]:.9f}", r[WORK]])
