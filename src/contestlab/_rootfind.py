"""Vectorised bracketing helpers used by the closed-form-free solvers.

Everything here works elementwise on numpy arrays so that whole grids of
root problems are solved in lockstep.  Functions passed in must accept and
return arrays of a common shape and must be monotone in the root variable
on the bracket (all callers solve single-crossing conditions).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import SolverError

Array = np.ndarray

_MAX_BISECTIONS = 200
_MAX_DOUBLINGS = 80
_STALL_STEPS = 3         # secant steps allowed before the bracket must halve


def bisect_vec(
    func: Callable[[Array], Array],
    lo: Array,
    hi: Array,
    *,
    tol: float = 1e-10,
    f_lo: Array | None = None,
    f_hi: Array | None = None,
) -> Array:
    """Elementwise bracketed root of ``func`` on ``[lo, hi]``.

    ``func`` must be non-decreasing in its argument wherever it is finite
    (callers arrange signs so the target crosses from negative to positive).
    Returns the midpoint of a bracket no wider than ``tol``.  Endpoints are
    never evaluated, so infinite limits at the bracket edges are harmless.
    A caller that knows finite end values passes them as ``f_lo`` and
    ``f_hi``; the first step is then a secant, and a root near one end is
    reached without halving down to it.  Elements with ``lo == hi`` pass
    through unchanged.

    Steps are Illinois regula falsi: the secant through the bracket's end
    values, with the value at an end that survives twice running halved.
    A step bisects instead while an end value is unknown or not finite,
    where the secant overflows, and when the bracket has not halved within
    ``_STALL_STEPS`` steps.  A secant point stays ``min(tol, width/2)/2``
    inside the bracket, so a bracket that closes in on the root from one
    side still shrinks to ``tol``.  An element stops moving once its own
    bracket is within ``tol``, after at most ``_MAX_BISECTIONS`` steps, so its result does
    not depend on the other elements of the call.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    f_lo = np.full_like(lo, np.nan) if f_lo is None else np.array(f_lo, dtype=float)
    f_hi = np.full_like(hi, np.nan) if f_hi is None else np.array(f_hi, dtype=float)
    moved = np.zeros(lo.shape, dtype=np.int8)   # end replaced last: -1 lo, +1 hi
    ref = hi - lo                               # width at the last halving
    stall = np.zeros(lo.shape, dtype=np.int8)   # steps since then, capped
    for _ in range(_MAX_BISECTIONS):
        live = hi - lo > tol
        if not live.any():
            break
        x = _probe(lo, hi, f_lo, f_hi, stall, tol)
        fx = func(x)
        up = (fx >= 0.0) & live
        down = live ^ up
        # Illinois: halve the value at an end that survives twice running
        np.multiply(f_lo, 0.5, out=f_lo, where=up & (moved == 1))
        np.multiply(f_hi, 0.5, out=f_hi, where=down & (moved == -1))
        np.copyto(hi, x, where=up)
        np.copyto(f_hi, fx, where=up)
        np.copyto(lo, x, where=down)
        np.copyto(f_lo, fx, where=down)
        moved = np.where(up, np.int8(1), np.int8(-1))
        width = hi - lo
        halved = width <= 0.5 * ref
        np.copyto(ref, width, where=halved)
        stall = np.where(halved, np.int8(0), np.minimum(stall + 1, _STALL_STEPS))
    return 0.5 * (lo + hi)


def _probe(lo: Array, hi: Array, f_lo: Array, f_hi: Array, stall: Array,
           tol: float) -> Array:
    """Next point of each bracket: the clipped secant, or the midpoint."""
    width = hi - lo
    margin = 0.5 * np.minimum(tol, 0.5 * width)
    with np.errstate(invalid="ignore", over="ignore"):
        secant = hi - f_hi * (width / (f_hi - f_lo))
    # end values a few subnormals apart overflow the secant to 0 * inf
    use_mid = ~(np.isfinite(f_lo) & np.isfinite(f_hi) & np.isfinite(secant))
    use_mid |= stall >= _STALL_STEPS
    secant = np.clip(secant, lo + margin, hi - margin)
    return np.where(use_mid, 0.5 * (lo + hi), secant)


def expand_upper(
    func: Callable[[Array], Array],
    start: Array,
    *,
    what: str = "root bracket",
) -> Array:
    """Upper bracket that strictly encloses the root of ``func`` above 0.

    Doubles ``start`` elementwise until ``func`` turns non-negative and
    returns twice that probe.  ``bisect_vec`` never evaluates an endpoint,
    so a root sitting exactly on the probe would leave the upper end value
    unknown and force plain halving; one more doubling puts the probe at
    the midpoint of a bracket from 0, the first point evaluated.  Raises
    :class:`SolverError` when some element never crosses, which signals a
    problem whose optimum runs away (for instance a cost function too flat
    for the production primitives).
    """
    hi = np.array(start, dtype=float, copy=True)
    pending = func(hi) < 0.0
    for _ in range(_MAX_DOUBLINGS):
        if not np.any(pending):
            return 2.0 * hi
        hi = np.where(pending, hi * 2.0, hi)
        pending = pending & (func(hi) < 0.0)
    raise SolverError(
        f"could not bracket {what}: no sign change after "
        f"{_MAX_DOUBLINGS} doublings (max probe {float(np.max(hi)):.3g})"
    )

