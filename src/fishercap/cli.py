"""Command-line front end.

Channels come in as JSON (inline or a file path); results go out as CSV
for tabular commands and JSON (inputs echoed) for scalar ones.  Every
command is deterministic: identical arguments give identical output
bytes.  Exit codes: 0 success, 1 validation error (usage errors
included), 2 numerical failure.
"""

import argparse
import json
import sys

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
    RangeError,
    ToleranceError,
    UnboundedTiltError,
    ValidationError,
    _count,
    _real,
)
from .quad import _midpoints

# ValueError covers the library's refusals and bad JSON, TypeError a channel without the output
# model a command needs (mi on awgn); numerical is tried first, DegenerateChannelError is a ValueError
_VALIDATION_ERRORS = (ValueError, KeyError, TypeError, OSError)
_NUMERICAL_ERRORS = (ToleranceError, ConvergenceError, UnboundedTiltError,
                     BudgetError, DegenerateChannelError, RangeError, np.linalg.LinAlgError)


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
    """value as a finite float (None passes)."""
    return None if value is None else _real(value, name, error=ValidationError)


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
# command bodies: each takes the parsed arguments, with ``args.channel``
# replaced by its JSON record and --grid, --P and --r checked, and the
# channel built from that record
# ---------------------------------------------------------------------------

def _cmd_fisher(args, channel):
    if args.theta_grid is not None:
        lo, hi, n = _parse_grid(args.theta_grid)
    else:
        (lo, hi), n = channel.param_space.profile_bounds, args.grid
    grid = _midpoints(lo, hi, n) if n > 1 else np.array([(lo + hi) / 2])
    if channel.param_space.shape == "ball":
        vals = np.asarray(channel.sqrt_det_fisher(grid), dtype=float)
        header = ["radius (input norm)", "sqrt_det_fisher (dimensionless)"]
    else:
        vals = np.asarray(channel.fisher(grid), dtype=float)
        header = ["theta (input parameter)", "fisher (per-antenna information)"]
    return _csv(header, [(float(t), float(v)) for t, v in zip(grid, vals)])


def _cmd_jf(args, channel):
    lo, hi, n = _parse_grid(args.lambda_grid)
    rows = []
    for lam in np.linspace(lo, hi, n):
        prior = _jef.tilted_prior(channel, lam)
        rows.append((float(lam), float(prior.jf(args.P)), float(prior.m)))
    return _csv(
        ["lambda (per power unit)", "jeffreys_factor (dimensionless)", "avg_cost (power units)"],
        rows,
    )


def _cmd_prior(args, channel):
    prior = _jef.solve_lambda_star(channel, args.P).prior
    grid = _midpoints(prior.lo, prior.hi, args.grid)
    dens = np.asarray(prior.density(grid), dtype=float)
    return _csv(
        ["theta (profile coordinate)", "density (1 per theta unit)"],
        [(float(t), float(d)) for t, d in zip(grid, dens)],
    )


def _cmd_lambda_star(args, channel):
    s = _jef.solve_lambda_star(channel, args.P)
    return _json_text({
        "channel": args.channel,
        "P": args.P,
        "lambda_star": s.lambda_star,
        "jf": s.jf,
        "avg_cost_at_star": s.m_at_star,
    })


def _cmd_capacity(args, channel):
    s = _jef.solve_lambda_star(channel, args.P)
    return _json_text({
        "channel": args.channel,
        "P": args.P,
        "n_r": args.nr,
        "lambda_star": s.lambda_star,
        "jf": s.jf,
        "capacity_bits": s.capacity_fn(args.nr),
    })


def _cmd_constellation(args, channel):
    if channel.param_space.shape == "ball":
        raise DomainError("constellation: a ball channel's design is a set of radii; "
                          "use the library's radial_constellation_isotropic with a direction set")
    if args.mode == "jeffreys":
        c = _con.jeffreys_constellation(channel, args.P, args.M)
    elif args.mode == "pam":
        c = _con.pam_constellation(channel, args.P, args.M)
    else:  # "poly"
        s = _jef.solve_lambda_star(channel, args.P)
        poly = _con.fit_poly_density(channel, s.lambda_star, args.degree)
        c = _con.approx_jeffreys_constellation(poly, args.P, args.M)
    return _csv(["index", "point (input units)", "probability"],
                [(i, float(x), float(w)) for i, (x, w) in enumerate(zip(c.points, c.probs))])


def _cmd_fit_poly(args, channel):
    s = _jef.solve_lambda_star(channel, args.P)
    poly, info = _con.fit_poly_density(channel, s.lambda_star, args.degree,
                                       max_newton=args.max_newton, full_output=True)
    return _json_text({
        "channel": args.channel,
        "P": args.P,
        "degree": args.degree,
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
    return _ch.DiscreteInput(np.array(pts), np.array(probs))


def _cmd_mi(args, channel):
    if (args.points_csv is None) == (args.prior_grid is None):
        raise ValidationError("mi: give exactly one of --points-csv or --prior-grid")
    if args.prior_grid is not None and args.P is None:
        raise ValidationError("mi: --prior-grid needs --P to solve the tilt")
    if args.points_csv is not None:
        dist = _read_points_csv(args.points_csv)
        source = {"points_csv": args.points_csv}
    else:
        s = _jef.solve_lambda_star(channel, args.P)
        dist = _mi.discretize_prior(s.prior, args.prior_grid)
        source = {"prior_grid": args.prior_grid, "lambda_star": s.lambda_star}
    out = {
        "channel": args.channel,
        "P": args.P,
        "n_r": args.nr,
        "mi_bits": _mi.mi_finite_output(channel, dist, args.nr),
        **source,
    }
    if args.ba:
        ba, bits = _mi.blahut_arimoto(channel, dist.points, args.nr)
        out["ba_mi_bits"] = bits
        out["ba_probs"] = [float(x) for x in ba.probs]
    return _json_text(out)


def _cmd_quant_loss(args, channel):
    schedule = _rq.default_radius_schedule if args.r is None else (lambda L: args.r)
    result = _rq.scaling_study(channel, schedule, _parse_int_list(args.L_list))
    rows = [(L, float(e), float(result.slope)) for L, e in zip(result.L_values, result.e_values)]
    return _csv(["L (interior bins)", "e_L (integrated log Fisher ratio)", "slope (log-log fit)"], rows)


def _cmd_fisher_rate(args, channel):
    n_list = _parse_int_list(args.n_list)
    acov = _ni.autocovariance_from_json(_load_json_arg(args.acov))
    limit = _ni.fisher_rate_limit(acov)
    rows = [(n, rate, float(limit)) for n, rate in zip(n_list, _ni._rates(acov, n_list))]
    return _csv(["n (outputs)", "fisher_rate (per noise power)", "limit (per noise power)"], rows)


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, the code for invalid input; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    ap = _Parser(
        prog="fishercap",
        description="Large-array capacities and constellation design from per-antenna Fisher information",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, body, **flags):
        p = sub.add_parser(name)
        p.set_defaults(body=body)
        p.add_argument("--output", default="-", help="output file, '-' for stdout")
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        return p

    channel = {"--channel": dict(required=True, help="channel JSON (inline or file path)")}
    add("fisher", _cmd_fisher, **channel, **{"--theta-grid": dict(default=None, help="lo:hi:count"),
                                             "--grid": dict(type=int, default=257)})
    add("jf", _cmd_jf, **channel, **{"--P": dict(type=float, required=True),
                                     "--lambda-grid": dict(required=True, help="lo:hi:count")})
    add("prior", _cmd_prior, **channel, **{"--P": dict(type=float, required=True),
                                           "--grid": dict(type=int, default=257)})
    add("lambda-star", _cmd_lambda_star, **channel, **{"--P": dict(type=float, required=True)})
    add("capacity", _cmd_capacity, **channel, **{"--P": dict(type=float, required=True),
                                                 "--nr": dict(type=int, required=True)})
    add("constellation", _cmd_constellation, **channel,
        **{"--P": dict(type=float, required=True),
           "--M": dict(type=int, required=True),
           "--mode": dict(default="jeffreys", choices=["jeffreys", "poly", "pam"]),
           "--degree": dict(type=int, default=8)})
    add("fit-poly", _cmd_fit_poly, **channel, **{"--P": dict(type=float, required=True),
                                                 "--degree": dict(type=int, default=8),
                                                 "--max-newton": dict(type=int, default=100)})
    add("mi", _cmd_mi, **channel, **{"--P": dict(type=float, default=None),
                                     "--nr": dict(type=int, required=True),
                                     "--points-csv": dict(default=None),
                                     "--prior-grid": dict(type=int, default=None),
                                     "--ba": dict(action="store_true")})
    add("quant-loss", _cmd_quant_loss, **channel,
        **{"--L-list": dict(required=True, help="comma separated"),
           "--r": dict(type=float, default=None,
                       help="fixed overflow radius (default 3+sqrt(ln L))")})
    add("fisher-rate", _cmd_fisher_rate, **{"--acov": dict(required=True, help="autocovariance JSON"),
                                            "--n-list": dict(required=True, help="comma separated")})
    return ap


def main(argv=None):
    """Run one command; returns the process exit status (0/1/2), also for usage errors and --help."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits: 1 on usage errors (_Parser.error), 0 after --help
        return e.code
    try:
        channel = None
        if args.command != "fisher-rate":
            args.channel = _load_json_arg(args.channel)
            channel = _ch.channel_from_json(args.channel)
        # each numeric option is checked here, once: --grid a count >= 1, --P and --r finite
        if hasattr(args, "grid"):
            args.grid = _count(args.grid, "--grid", 1, ValidationError)
        for name in ("P", "r"):
            if hasattr(args, name):
                setattr(args, name, _finite(f"--{name}", getattr(args, name)))
        text = args.body(args, channel)
    except _NUMERICAL_ERRORS as e:
        print(f"fishercap {args.command}: numerical failure: {e}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as e:
        print(f"fishercap {args.command}: invalid input: {e}", file=sys.stderr)
        return 1
    _emit(args.output, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
