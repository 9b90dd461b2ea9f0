"""Exception types shared across the library, and the checks of its inputs.

Each kind of input is checked by one private helper.  A call site names
its value ``"site: name"`` and gets the value back converted:

* ``_real(x, what, lo, hi, closed)``: a float, finite and in (lo, hi),
  or in [lo, hi] when ``closed``; a str, bytes or bool is never real.
* ``_reals(x, what, lo, hi, finite)``: a float array whose entries are
  finite (when ``finite``; never NaN) and in [lo, hi], naming the first
  bad one; a str, bytes, bool or object is refused, also inside a
  nested list or tuple, where numpy would read it as a number.
* ``_count(n, what, least)``: an int >= least, from a Python or numpy
  integer or an integer-valued float (the JSON ``2.0``); a bool is never
  a count, and 2.5 is refused, never truncated.
* ``_probabilities(p, what, tol)``: a 1-D ``_reals`` array of
  nonnegative entries summing to 1 within ``tol``.

A value of the wrong type raises ValidationError, as does a malformed
probability vector.  A value of the right type outside its range raises
the site's ``error`` (DomainError unless the site passes another), so
each site keeps the exception class it has always raised.

``_check_profile`` is the ``_reals`` of a theta in a parameter space, and
``_from_record`` reads a channel's or an autocovariance's JSON record.
"""

import json
import math
import reprlib
import sys

import numpy as np


class FisherCapError(Exception):
    """Base class for library-specific failures."""


class DomainError(FisherCapError, ValueError):
    """Input lies outside the documented domain of an operation."""


class ValidationError(FisherCapError, ValueError):
    """Structured input (thresholds, weights, JSON records) is malformed."""


class ToleranceError(FisherCapError, RuntimeError):
    """Quadrature failed to meet its tolerance; carries the best estimate."""

    def __init__(self, message, best, err_est):
        super().__init__(message)
        self.best, self.err_est = best, err_est


class ConvergenceError(FisherCapError, RuntimeError):
    """An iterative solver hit its iteration cap."""


class BudgetError(FisherCapError, RuntimeError):
    """An enumeration would exceed the configured evaluation budget."""


class DegenerateChannelError(FisherCapError, ValueError):
    """Channel has vanishing Fisher information; no prior can be normalized."""


class UnboundedTiltError(FisherCapError, RuntimeError):
    """No finite tilt meets the average-power target (near-deterministic cost)."""


class RangeError(FisherCapError, OverflowError):
    """A result lies outside the floating-point range (e.g. JF at a huge tilt)."""


class PositivityError(FisherCapError, ValueError):
    """A density that must be strictly positive vanishes on the grid."""


_NOT_REAL = (str, bytes, bool, np.bool_)
_SEQUENCES = (list, tuple)
_MAX = sys.float_info.max
_INTEGER_TYPES = (int, np.integer)
_REAL_TYPES = (int, float, np.integer, np.floating)


def _need(what, wanted, got):
    # "site: need <wanted>, got <got>" for what = "site: name"; {} in wanted stands for name
    site, _, name = what.rpartition(": ")
    text = f"need {wanted.format(name)}, got {reprlib.repr(got)}"
    return f"{site}: {text}" if site else text


def _real(x, what, lo=-math.inf, hi=math.inf, closed=False, error=DomainError):
    """float(x), finite and in (lo, hi), or in [lo, hi] when ``closed``; see the module docstring."""
    if not isinstance(x, _NOT_REAL):
        try:
            v = float(x)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(v) and ((lo <= v <= hi) if closed else (lo < v < hi)):
                return v
            rule = f" {'>=' if closed else '>'} {lo:g}" if lo > -math.inf else ""
            if hi < math.inf:
                rule += f"{' and' if rule else ''} {'<=' if closed else '<'} {hi:g}"
            raise error(_need(what, "a finite {}" + rule, x))
    raise ValidationError(_need(what, "a real {}", x))


def _holds_non_real(seq):
    # whether a list or tuple, nested ones opened, holds a str, bytes or bool
    types = set(map(type, seq))
    if any(issubclass(t, _SEQUENCES) for t in types):  # nested: open each sequence
        return any(_holds_non_real(s) if isinstance(s, _SEQUENCES) else isinstance(s, _NOT_REAL)
                   for s in seq)
    return any(issubclass(t, _NOT_REAL) for t in types)


def _reals(x, what, lo=-math.inf, hi=math.inf, finite=True, error=DomainError):
    """x as a float array, every entry finite and in [lo, hi]; see the module docstring."""
    try:
        v = np.asarray(x)
    except ValueError:  # a ragged sequence
        v = np.asarray(None)
    # no strings, bools or objects, nor a bool that numpy read as a number
    if v.dtype.kind not in "iuf" or isinstance(x, _SEQUENCES) and _holds_non_real(x):
        raise ValidationError(_need(what, "real {}", x))
    v = v.astype(float, copy=False)
    bot, top = (max(lo, -_MAX), min(hi, _MAX)) if finite else (lo, hi)  # +-inf fails [-MAX, MAX]
    if v.size and not (bot <= v.min() and v.max() <= top):  # a NaN entry makes both NaN
        span = f" in [{lo:g}, {hi:g}]" if -math.inf < lo or hi < math.inf else ""
        wanted = f"{'finite' if finite else 'non-NaN'} {{}}{span}"
        raise error(_need(what, wanted, float(v[~((v >= bot) & (v <= top))][0])))
    return v


def _count(n, what, least, error=DomainError):
    """int(n) for an integer-valued n >= least; see the module docstring."""
    if isinstance(n, bool) or not isinstance(n, _REAL_TYPES):
        raise ValidationError(_need(what, f"an integer {{}} >= {least}", n))
    if (isinstance(n, _INTEGER_TYPES) or float(n).is_integer()) and n >= least:
        return int(n)
    raise error(_need(what, f"an integer {{}} >= {least}", n))


def _probabilities(p, what, tol):
    """p as a 1-D float array of nonnegative entries summing to 1 within tol."""
    try:
        v = _reals(p, what, 0.0, error=ValidationError)
        if v.ndim == 1 and abs(v.sum() - 1.0) <= tol:
            return v
    except ValidationError:
        pass
    raise ValidationError(f"{what} must be a probability vector")


def _check_profile(theta, lo, hi, what):
    return _reals(theta, f"{what}: theta", lo - 1e-12, hi + 1e-12)


def _from_record(builders, record, what):
    """The kind's builder (``builders[kind]``) applied to a JSON record (dict or JSON string).

    A malformed record raises ValidationError: bad JSON, not an object,
    an unknown kind, a field the kind does not have, or a field that is
    missing (KeyError) or of the wrong type (TypeError) for the kind's
    builder.
    """
    if isinstance(record, (str, bytes)):
        try:
            record = json.loads(record)
        except json.JSONDecodeError as e:
            raise ValidationError(f"{what}: invalid JSON ({e})") from e
    if not isinstance(record, dict):
        raise ValidationError(f"{what}: expected a JSON object")
    kind = record.get("kind")
    if not isinstance(kind, str) or kind not in builders:
        raise ValidationError(f"{what}: unknown kind {kind!r}")
    fields, build = builders[kind]
    _check_fields(record, ("kind", *fields), f"{what}: kind {kind!r}")
    try:
        return build(record)
    except KeyError as e:
        raise ValidationError(f"{what}: kind {kind!r} is missing field {e}") from e
    except TypeError as e:
        raise ValidationError(f"{what}: kind {kind!r} has a field of the wrong type ({e})") from e


def _check_fields(record, fields, what):
    """Refuse a field of the record object that is not in ``fields`` (see channels.CHANNEL_BUILDERS)."""
    names = {f.split(".")[0].rstrip("?") for f in fields}
    for name, value in record.items():
        if name not in names:
            raise ValidationError(f"{what} has no field {name!r} (its fields: {', '.join(fields)})")
        if isinstance(value, dict):  # an object with fields x.y checks them in turn
            inner = [f.partition(".")[2] for f in fields if f.startswith(f"{name}.")]
            if inner:
                _check_fields(value, inner, f"{what}, object {name!r},")
