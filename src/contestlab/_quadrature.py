"""Quadrature helpers: fixed Gauss-Legendre rules and adaptive Simpson.

The adaptive routine integrates vector-valued integrands with the error
budget spread over subintervals in proportion to their width, so the sum
of per-component errors over the whole interval stays below ``tol``.  The
integrand must accept an array of abscissae of shape (n,) and return an
array of shape (n, m); intervals are processed in batches so the integrand
is always called on whole arrays.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

import numpy as np

from .errors import IntegrationError

_MAX_INTERVALS = 200_000


@cache
def _unit_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule on [-1, 1], computed once per n and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi]."""
    x, w = _unit_rule(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def adaptive_simpson(
    func: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    *,
    tol: float,
) -> np.ndarray:
    """Integrate a vector-valued ``func`` over [lo, hi] adaptively.

    Returns an array of shape (m,).  Accuracy is controlled through the
    summed absolute Richardson error of all components; an interval is
    accepted once its error estimate falls below its width-proportional
    share of ``tol``.  Raises :class:`IntegrationError` if the subdivision
    budget is exhausted.
    """
    if hi <= lo:
        probe = np.atleast_2d(func(np.array([lo])))
        return np.zeros(probe.shape[1])

    total_width = hi - lo

    def _batch_eval(points: np.ndarray) -> np.ndarray:
        out = np.asarray(func(points), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        return out

    # start from a uniform partition: a single panel can silently accept
    # integrands whose support falls between its five probe points
    edges = np.linspace(lo, hi, 17)
    a = edges[:-1]
    b = edges[1:]
    fa = _batch_eval(a)
    fb = _batch_eval(b)
    fm = _batch_eval(0.5 * (a + b))
    whole = (b - a)[:, None] / 6.0 * (fa + 4.0 * fm + fb)

    result = np.zeros(whole.shape[1])
    spent = 0
    while a.size:
        spent += a.size
        if spent > _MAX_INTERVALS:
            raise IntegrationError(
                f"adaptive Simpson exceeded {_MAX_INTERVALS} intervals on "
                f"[{lo:.6g}, {hi:.6g}]"
            )
        mid = 0.5 * (a + b)
        lm = _batch_eval(0.5 * (a + mid))
        rm = _batch_eval(0.5 * (mid + b))
        h6 = (mid - a)[:, None] / 6.0
        left = h6 * (fa + 4.0 * lm + fm)
        right = h6 * (fm + 4.0 * rm + fb)
        err = np.abs(left + right - whole).sum(axis=1)
        budget = tol * (b - a) / total_width
        done = err <= budget
        if np.any(done):
            refined = left[done] + right[done]
            # one extra Richardson step per accepted interval
            refined += (refined - whole[done]) / 15.0
            result += refined.sum(axis=0)
        keep = ~done
        a = np.concatenate([a[keep], mid[keep]])
        b = np.concatenate([mid[keep], b[keep]])
        fa = np.concatenate([fa[keep], fm[keep]])
        fb = np.concatenate([fm[keep], fb[keep]])
        fm = np.concatenate([lm[keep], rm[keep]])
        whole = np.concatenate([left[keep], right[keep]])
    return result
