"""Command-line front end.

Channels come in as JSON (inline or a file path); results go out as CSV
for tabular commands and JSON (inputs echoed) for scalar ones.  Every
command is deterministic: identical configuration gives identical
output bytes.  Exit codes: 0 success, 1 validation error, 2 numerical
failure.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import channels as _ch
from . import constellation as _con
from . import jeffreys as _jef
from . import mutual_info as _mi
from . import noniid as _ni
from . import receiver_quant as _rq
from .errors import (
    BudgetError,
    ConvergenceError,
    DegenerateChannelError,
    DomainError,
    PositivityError,
    RangeError,
    ToleranceError,
    UnboundedTiltError,
    ValidationError,
)

_VALIDATION_ERRORS = (ValidationError, DomainError, PositivityError, ValueError,
                      KeyError, OSError, json.JSONDecodeError)
_NUMERICAL_ERRORS = (ToleranceError, ConvergenceError, UnboundedTiltError,
                     BudgetError, DegenerateChannelError, RangeError, FloatingPointError,
                     np.linalg.LinAlgError)


@dataclass
class RunConfig:
    command: str
    channel: dict | None = None
    acov: dict | None = None
    P: float | None = None
    n_r: int | None = None
    M: int | None = None
    degree: int = 8
    grid: int = 257
    lambda_grid: tuple | None = None   # (lo, hi, count)
    theta_grid: tuple | None = None
    mode: str = "jeffreys"
    output: str = "-"
    L_list: list = field(default_factory=list)
    n_list: list = field(default_factory=list)
    overflow_radius: float | None = None
    points_csv: str | None = None
    prior_grid: int | None = None
    run_ba: bool = False
    max_newton: int = 100


def _fmt(x):
    return f"{float(x):.17g}"


def _emit(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _reject_constant(token):
    raise ValidationError(f"non-finite JSON number {token}")


def _load_json_arg(text):
    """A JSON object given inline or as a file path; NaN and Infinity are rejected."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text, parse_constant=_reject_constant)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _finite(name, value):
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be lo:hi:count, got {text!r}")
    lo, hi = _finite("grid lo", float(parts[0])), _finite("grid hi", float(parts[1]))
    n = int(parts[2])
    if n < 1 or hi < lo:
        raise ValidationError(f"bad grid argument {text!r}")
    return lo, hi, n


def _parse_int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------

def _cmd_fisher(cfg):
    ch = _ch.channel_from_json(cfg.channel)
    lo, hi = ch.param_space.profile_bounds
    if cfg.theta_grid is not None:
        lo, hi, n = cfg.theta_grid
    else:
        n = cfg.grid
    grid = lo + (hi - lo) * (np.arange(n) + 0.5) / n if n > 1 else np.array([(lo + hi) / 2])
    if ch.param_space.shape == "ball":
        vals = np.asarray(ch.sqrt_det_fisher(grid), dtype=float)
        header = ["radius (input norm)", "sqrt_det_fisher (dimensionless)"]
    else:
        vals = np.asarray(ch.fisher(grid), dtype=float)
        header = ["theta (input parameter)", "fisher (per-antenna information)"]
    return _csv(header, [(float(t), float(v)) for t, v in zip(grid, vals)])


def _cmd_jf(cfg):
    ch = _ch.channel_from_json(cfg.channel)
    lo, hi, n = cfg.lambda_grid
    lams = np.linspace(lo, hi, n)
    rows = []
    for lam in lams:
        jf = _jef.jeffreys_factor(ch, lam, cfg.P)
        m = _jef.average_cost(ch, lam)
        rows.append((float(lam), float(jf), float(m)))
    return _csv(
        ["lambda (per power unit)", "jeffreys_factor (dimensionless)", "avg_cost (power units)"],
        rows,
    )


def _cmd_prior(cfg):
    ch = _ch.channel_from_json(cfg.channel)
    solution = _jef.solve_lambda_star(ch, cfg.P)
    prior = _jef.tilted_prior(ch, solution.lambda_star, cfg.P)
    n = cfg.grid
    grid = prior.lo + (prior.hi - prior.lo) * (np.arange(n) + 0.5) / n
    dens = np.asarray(prior.density(grid), dtype=float)
    return _csv(
        ["theta (profile coordinate)", "density (1 per theta unit)"],
        [(float(t), float(d)) for t, d in zip(grid, dens)],
    )


def _cmd_lambda_star(cfg):
    ch = _ch.channel_from_json(cfg.channel)
    s = _jef.solve_lambda_star(ch, cfg.P)
    return _json_text({
        "channel": cfg.channel,
        "P": cfg.P,
        "lambda_star": s.lambda_star,
        "jf": s.jf,
        "avg_cost_at_star": s.m_at_star,
    })


def _cmd_capacity(cfg):
    ch = _ch.channel_from_json(cfg.channel)
    s = _jef.solve_lambda_star(ch, cfg.P)
    return _json_text({
        "channel": cfg.channel,
        "P": cfg.P,
        "n_r": cfg.n_r,
        "lambda_star": s.lambda_star,
        "jf": s.jf,
        "capacity_bits": s.capacity_fn(cfg.n_r),
    })


def _constellation_by_mode(cfg, ch):
    if cfg.mode == "jeffreys":
        return _con.jeffreys_constellation(ch, cfg.P, cfg.M)
    if cfg.mode == "pam":
        return _con.pam_constellation(ch, cfg.P, cfg.M)
    if cfg.mode == "poly":
        s = _jef.solve_lambda_star(ch, cfg.P)
        poly = _con.fit_poly_density(ch, s.lambda_star, cfg.degree)
        return _con.approx_jeffreys_constellation(poly, cfg.P, cfg.M)
    raise ValidationError(f"unknown constellation mode {cfg.mode!r}")


def _cmd_constellation(cfg):
    ch = _ch.channel_from_json(cfg.channel)
    return _con.constellation_to_csv(_constellation_by_mode(cfg, ch))


def _cmd_fit_poly(cfg):
    ch = _ch.channel_from_json(cfg.channel)
    s = _jef.solve_lambda_star(ch, cfg.P)
    schedule = _con.BarrierSchedule(max_newton=cfg.max_newton)
    poly, info = _con.fit_poly_density(ch, s.lambda_star, cfg.degree, schedule,
                                       full_output=True)
    return _json_text({
        "channel": cfg.channel,
        "P": cfg.P,
        "degree": cfg.degree,
        "lambda_star": s.lambda_star,
        "coeffs": [float(c) for c in poly.coeffs],
        "support": list(poly.support),
        "newton_iterations": info.newton_iterations,
        "final_gradient_norm": info.final_gradient_norm,
    })


def _read_points_csv(path):
    pts, probs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("index"):
            raise ValidationError(f"{path}: not a constellation CSV")
        for line in fh:
            if not line.strip():
                continue
            fields = line.strip().split(",")
            if len(fields) != 3:
                raise ValidationError(
                    f"{path}: mi needs scalar constellation points (index,point,probability)")
            pts.append(float(fields[1]))
            probs.append(float(fields[2]))
    return _mi.DiscreteInput(np.array(pts), np.array(probs))


def _cmd_mi(cfg):
    ch = _ch.channel_from_json(cfg.channel)
    if (cfg.points_csv is None) == (cfg.prior_grid is None):
        raise ValidationError("mi: give exactly one of --points-csv or --prior-grid")
    if cfg.prior_grid is not None and cfg.P is None:
        raise ValidationError("mi: --prior-grid needs --P to solve the tilt")
    if cfg.points_csv is not None:
        dist = _read_points_csv(cfg.points_csv)
        source = {"points_csv": cfg.points_csv}
    else:
        s = _jef.solve_lambda_star(ch, cfg.P)
        prior = _jef.tilted_prior(ch, s.lambda_star, cfg.P)
        dist = _mi.discretize_prior(prior, cfg.prior_grid)
        source = {"prior_grid": cfg.prior_grid, "lambda_star": s.lambda_star}
    out = {
        "channel": cfg.channel,
        "P": cfg.P,
        "n_r": cfg.n_r,
        "mi_bits": _mi.mi_finite_output(ch, dist, cfg.n_r),
        **source,
    }
    if cfg.run_ba:
        ba, bits = _mi.blahut_arimoto(ch, dist.points, cfg.n_r)
        out["ba_mi_bits"] = bits
        out["ba_probs"] = [float(x) for x in ba.probs]
    return _json_text(out)


def _cmd_quant_loss(cfg):
    ch = _ch.channel_from_json(cfg.channel)
    if cfg.overflow_radius is not None:
        schedule = lambda L: cfg.overflow_radius
    else:
        schedule = _rq.default_radius_schedule
    result = _rq.scaling_study(ch, schedule, cfg.L_list)
    rows = [(L, float(e), float(result.slope)) for L, e in zip(result.L_values, result.e_values)]
    return _csv(["L (interior bins)", "e_L (integrated log Fisher ratio)", "slope (log-log fit)"], rows)


def _cmd_fisher_rate(cfg):
    acov = _ni.autocovariance_from_json(cfg.acov)
    limit = _ni.fisher_rate_limit(acov)
    rows = []
    for n in cfg.n_list:
        rows.append((n, float(_ni.fisher_rate_finite(acov, n)), float(limit)))
    return _csv(["n (outputs)", "fisher_rate (per noise power)", "limit (per noise power)"], rows)


_COMMANDS = {
    "fisher": _cmd_fisher,
    "jf": _cmd_jf,
    "prior": _cmd_prior,
    "lambda-star": _cmd_lambda_star,
    "capacity": _cmd_capacity,
    "constellation": _cmd_constellation,
    "fit-poly": _cmd_fit_poly,
    "mi": _cmd_mi,
    "quant-loss": _cmd_quant_loss,
    "fisher-rate": _cmd_fisher_rate,
}


def run(config):
    """Execute a RunConfig; returns the process exit status (0/1/2)."""
    try:
        body = _COMMANDS[config.command]
    except KeyError:
        print(f"fishercap: unknown command {config.command!r}", file=sys.stderr)
        return 1
    try:
        text = body(config)
    except _NUMERICAL_ERRORS as e:
        print(f"fishercap {config.command}: numerical failure: {e}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as e:
        print(f"fishercap {config.command}: invalid input: {e}", file=sys.stderr)
        return 1
    _emit(config.output, text)
    return 0


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="fishercap",
        description="Large-array capacities and constellation design from per-antenna Fisher information",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **flags):
        p = sub.add_parser(name)
        p.add_argument("--output", default="-", help="output file, '-' for stdout")
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        return p

    channel = {"--channel": dict(required=True, help="channel JSON (inline or file path)")}
    add("fisher", **channel, **{"--theta-grid": dict(default=None, help="lo:hi:count"),
                                "--grid": dict(type=int, default=257)})
    add("jf", **channel, **{"--P": dict(type=float, required=True),
                            "--lambda-grid": dict(required=True, help="lo:hi:count")})
    add("prior", **channel, **{"--P": dict(type=float, required=True),
                               "--grid": dict(type=int, default=257)})
    add("lambda-star", **channel, **{"--P": dict(type=float, required=True)})
    add("capacity", **channel, **{"--P": dict(type=float, required=True),
                                  "--nr": dict(type=int, required=True)})
    add("constellation", **channel, **{"--P": dict(type=float, required=True),
                                       "--M": dict(type=int, required=True),
                                       "--mode": dict(default="jeffreys",
                                                      choices=["jeffreys", "poly", "pam"]),
                                       "--degree": dict(type=int, default=8)})
    add("fit-poly", **channel, **{"--P": dict(type=float, required=True),
                                  "--degree": dict(type=int, default=8),
                                  "--max-newton": dict(type=int, default=100)})
    add("mi", **channel, **{"--P": dict(type=float, default=None),
                            "--nr": dict(type=int, required=True),
                            "--points-csv": dict(default=None),
                            "--prior-grid": dict(type=int, default=None),
                            "--ba": dict(action="store_true")})
    add("quant-loss", **channel, **{"--L-list": dict(required=True, help="comma separated"),
                                    "--r": dict(type=float, default=None,
                                                help="fixed overflow radius (default 3+sqrt(ln L))")})
    add("fisher-rate", **{"--acov": dict(required=True, help="autocovariance JSON"),
                          "--n-list": dict(required=True, help="comma separated")})
    return ap


def _config_from_args(args):
    cfg = RunConfig(command=args.command, output=args.output)
    if hasattr(args, "channel"):
        cfg.channel = _load_json_arg(args.channel)
    if getattr(args, "acov", None) is not None:
        cfg.acov = _load_json_arg(args.acov)
    for flag in ("P", "r"):
        if getattr(args, flag, None) is not None:
            _finite(f"--{flag}", getattr(args, flag))
    for name, attr in [("P", "P"), ("n_r", "nr"), ("M", "M"), ("degree", "degree"),
                       ("grid", "grid"), ("mode", "mode"), ("points_csv", "points_csv"),
                       ("prior_grid", "prior_grid"), ("overflow_radius", "r"),
                       ("max_newton", "max_newton")]:
        if getattr(args, attr, None) is not None:
            setattr(cfg, name, getattr(args, attr))
    if getattr(args, "lambda_grid", None) is not None:
        cfg.lambda_grid = _parse_grid(args.lambda_grid)
    if getattr(args, "theta_grid", None) is not None:
        cfg.theta_grid = _parse_grid(args.theta_grid)
    if getattr(args, "L_list", None) is not None:
        cfg.L_list = _parse_int_list(args.L_list)
    if getattr(args, "n_list", None) is not None:
        cfg.n_list = _parse_int_list(args.n_list)
    cfg.run_ba = bool(getattr(args, "ba", False))
    return cfg


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config_from_args(args)
    except _VALIDATION_ERRORS as e:
        print(f"fishercap: invalid input: {e}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
