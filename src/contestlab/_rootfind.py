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


def bisect_vec(
    func: Callable[[Array], Array],
    lo: Array,
    hi: Array,
    *,
    tol: float = 1e-10,
) -> Array:
    """Elementwise bisection for a sign change of ``func`` on ``[lo, hi]``.

    ``func`` must be non-decreasing in its argument wherever it is finite
    (callers arrange signs so the target crosses from negative to positive).
    Endpoints are never evaluated, so infinite limits at the bracket edges
    are harmless.  Elements with ``lo == hi`` pass through unchanged.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    for _ in range(_MAX_BISECTIONS):
        if np.all(hi - lo <= tol):
            break
        mid = 0.5 * (lo + hi)
        up = func(mid) >= 0.0
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return 0.5 * (lo + hi)


def expand_upper(
    func: Callable[[Array], Array],
    start: Array,
    *,
    what: str = "root bracket",
) -> Array:
    """Double ``start`` elementwise until ``func`` turns non-negative.

    Used to find a finite upper bracket when no analytic cap exists.  Raises
    :class:`SolverError` when some element never crosses, which signals a
    problem whose optimum runs away (for instance a cost function too flat
    for the production primitives).
    """
    hi = np.array(start, dtype=float, copy=True)
    pending = func(hi) < 0.0
    for _ in range(_MAX_DOUBLINGS):
        if not np.any(pending):
            return hi
        hi = np.where(pending, hi * 2.0, hi)
        pending = pending & (func(hi) < 0.0)
    raise SolverError(
        f"could not bracket {what}: no sign change after "
        f"{_MAX_DOUBLINGS} doublings (max probe {float(np.max(hi)):.3g})"
    )

