"""Model primitives: effort technologies, type and noise distributions.

A :class:`Scenario` bundles everything a solver needs: the creative
production function ``nu(a, theta)``, the mechanistic channel ``xi(b)``,
the effort cost ``c(e)`` on total effort ``e = a + b``, the distribution
of private types, the performance noise family indexed by mean fitness,
the number of players and the prize vector.

All form methods broadcast over numpy arrays.  Derivatives may be
``math.inf`` at domain corners (power forms at zero effort); callers are
expected to treat infinities as ordinary extended reals.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from ._normal import ndtr, ndtri
from .errors import DomainError

Array = np.ndarray

_NU_KINDS = ("linear", "power", "saturating")
_XI_KINDS = ("linear", "power")
_COST_KINDS = ("linear", "quadratic")
_TYPE_KINDS = ("uniform", "truncated-normal")
_NOISE_KINDS = ("normal", "gumbel", "exponential")

# fitness this close to a saturating supremum counts as unreachable
SATURATION_MARGIN = 1e-6


def _check_nonneg(name: str, x: Array | float) -> Array:
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise DomainError(f"{name} must be non-negative, got {np.min(arr)!r}")
    return arr


@dataclass(frozen=True)
class ProductionForm:
    """Creative technology ``nu(a, theta)``: concave in effort, supermodular.

    Kinds:

    - ``linear``:      nu = theta * a
    - ``power``:       nu = theta * a**alpha   (0 < alpha <= 1)
    - ``saturating``:  nu = theta * (1 - exp(-a))
    """

    kind: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _NU_KINDS:
            raise DomainError(f"unknown production kind {self.kind!r}")
        if self.kind == "power":
            if self.alpha is None or not 0.0 < self.alpha <= 1.0:
                raise DomainError("power production needs alpha in (0, 1]")
        elif self.alpha is not None:
            raise DomainError(f"{self.kind} production takes no alpha")

    def value(self, a: Array | float, theta: Array | float) -> Array:
        return self._value(_check_nonneg("creative effort", a),
                           np.asarray(theta, dtype=float))

    def deriv_a(self, a: Array | float, theta: Array | float) -> Array:
        """Marginal product of creative effort; +inf at a=0 for power forms."""
        return self._deriv_a(_check_nonneg("creative effort", a),
                             np.asarray(theta, dtype=float))

    # unchecked kernels: float arrays, a >= 0 guaranteed by the caller

    def _value(self, a: Array, theta: Array) -> Array:
        if self.kind == "linear":
            return theta * a
        if self.kind == "power":
            return theta * np.power(a, self.alpha)
        return theta * (-np.expm1(-a))

    @property
    def _constant_margin(self) -> bool:
        """Whether nu_a(a, theta) = theta at every effort (alpha = 1 included)."""
        return self.kind == "linear" or self.alpha == 1.0

    def _deriv_a(self, a: Array, theta: Array) -> Array:
        if self._constant_margin:
            return theta * np.ones_like(a)
        if self.kind == "power":
            with np.errstate(divide="ignore", invalid="ignore"):
                raw = self.alpha * np.power(a, self.alpha - 1.0)  # inf at a=0
                return np.where(theta > 0, theta * raw, 0.0)
        return theta * np.exp(-a)

    def _inv_deriv_a(self, m: Array, theta: Array) -> Array:
        """Creative effort whose marginal product is ``m``.

        Only for kinds whose margin decays (not ``_constant_margin``);
        m, theta > 0 guaranteed by the caller.
        """
        if self.kind == "power":
            return np.power(m / (self.alpha * theta), 1.0 / (self.alpha - 1.0))
        return np.log(theta / m)

    def invert(self, target: Array | float, theta: Array | float) -> Array:
        """Creative effort reaching ``target`` alone; inf when unreachable."""
        return self._invert(_check_nonneg("fitness target", target),
                            np.asarray(theta, dtype=float))

    def _invert(self, target: Array, theta: Array) -> Array:
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == "linear":
                raw = target / theta
            elif self.kind == "power":
                raw = np.power(target / theta, 1.0 / self.alpha)
            else:
                ratio = target / theta
                raw = np.where(ratio < 1.0, -np.log1p(-np.minimum(ratio, 1.0 - 1e-300)), np.inf)
        out = np.where(target <= 0, 0.0, np.where(theta > 0, raw, np.inf))
        if self.kind == "saturating":   # nu(., theta) rises to theta, never reaching it
            out = np.where(target >= theta - SATURATION_MARGIN,
                           np.where(target <= 0, 0.0, np.inf), out)
        return out


@dataclass(frozen=True)
class MechanizationForm:
    """Mechanistic channel ``xi(b)``: concave, type independent.

    Kinds:

    - ``linear``:  xi = b            (marginal product never decays)
    - ``power``:   xi = b**alpha     (0 < alpha < 1)
    """

    kind: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _XI_KINDS:
            raise DomainError(f"unknown mechanization kind {self.kind!r}")
        if self.kind == "power":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise DomainError("power mechanization needs alpha in (0, 1)")
        elif self.alpha is not None:
            raise DomainError("linear mechanization takes no alpha")

    def value(self, b: Array | float) -> Array:
        return self._value(_check_nonneg("mechanistic effort", b))

    def deriv(self, b: Array | float) -> Array:
        """Marginal product of mechanistic effort; +inf at b=0 for power."""
        return self._deriv(_check_nonneg("mechanistic effort", b))

    def invert(self, target: Array | float) -> Array:
        """Mechanistic effort producing exactly ``target``."""
        return self._invert(_check_nonneg("fitness target", target))

    # unchecked kernels: float arrays, non-negative by the caller's guarantee

    def _value(self, b: Array) -> Array:
        if self.kind == "linear":
            return b.copy()
        return np.power(b, self.alpha)

    def _deriv(self, b: Array) -> Array:
        if self.kind == "linear":
            return np.ones_like(b)
        with np.errstate(divide="ignore"):
            raw = self.alpha * np.power(b, self.alpha - 1.0)
        return np.where(b > 0, raw, np.inf)

    def _invert(self, target: Array) -> Array:
        if self.kind == "linear":
            return target.copy()
        return np.power(target, 1.0 / self.alpha)

    def _inv_deriv(self, m: Array) -> Array:
        """Mechanistic effort whose marginal product is ``m`` (power kind, m > 0)."""
        return np.power(m / self.alpha, 1.0 / (self.alpha - 1.0))


@dataclass(frozen=True)
class CostForm:
    """Effort cost ``c(e)``: convex, c(0)=0.

    Kinds: ``linear`` c = kappa*e, ``quadratic`` c = kappa*e**2 (kappa > 0).
    """

    kind: str
    kappa: float

    def __post_init__(self) -> None:
        if self.kind not in _COST_KINDS:
            raise DomainError(f"unknown cost kind {self.kind!r}")
        if not 0.0 < self.kappa < math.inf:
            raise DomainError(f"cost kappa must be positive and finite, got {self.kappa!r}")

    def value(self, e: Array | float) -> Array:
        return self._value(_check_nonneg("total effort", e))

    def deriv(self, e: Array | float) -> Array:
        return self._deriv(_check_nonneg("total effort", e))

    # unchecked kernels: float arrays, e >= 0 guaranteed by the caller

    def _value(self, e: Array) -> Array:
        if self.kind == "linear":
            return self.kappa * e
        return self.kappa * e * e

    def _deriv(self, e: Array) -> Array:
        if self.kind == "linear":
            return self.kappa * np.ones_like(e)
        return 2.0 * self.kappa * e


@dataclass(frozen=True)
class TypeDistribution:
    """Distribution of private types on a bounded support [lo, hi], lo >= 0.

    ``uniform`` admits the degenerate case lo == hi (a point mass), used by
    diagnostic oracles.  ``truncated-normal`` is N(loc, scale**2) cut to
    [lo, hi]; it requires a proper interval that holds a normal float's
    worth of probability.  Its pdf, cdf and ppf work on the lower normal
    tail Phi(z), or on the upper tail Phi(-z) when the support lies above
    ``loc``, so a support far out in either tail keeps its digits.
    """

    kind: str
    lo: float
    hi: float
    loc: float | None = None
    scale: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _TYPE_KINDS:
            raise DomainError(f"unknown type distribution {self.kind!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("type support must be finite")
        if self.lo < 0:
            raise DomainError(f"types must be non-negative, got support lower bound {self.lo!r}")
        if self.hi < self.lo:
            raise DomainError("type support upper bound below lower bound")
        if self.kind == "truncated-normal":
            if self.hi == self.lo:
                raise DomainError("truncated-normal needs a proper interval")
            if self.scale is None or not 0.0 < self.scale < math.inf:
                raise DomainError("truncated-normal needs a positive finite scale")
            if self.loc is None or not math.isfinite(self.loc):
                raise DomainError("truncated-normal needs a finite loc")
            _, f_lo, f_hi = self._tails()
            if not abs(f_hi - f_lo) >= np.finfo(float).tiny:
                raise DomainError("truncated-normal support holds no normal "
                                  "probability at double precision")

    @property
    def degenerate(self) -> bool:
        return self.hi == self.lo

    def grid(self, n: int) -> Array:
        """``n`` evenly spaced types on the support, or a point mass's one type.

        Raises :class:`DomainError` when ``n < 2``, for a point mass too.
        """
        if n < 2:
            raise DomainError(f"type grid needs at least 2 points, got {n}")
        return np.array([self.lo]) if self.degenerate else np.linspace(self.lo, self.hi, n)

    def _tails(self) -> tuple[float, float, float]:
        """(sign, F(lo), F(hi)) of the truncated normal, F(x) = Phi(sign * z(x)).

        ``sign`` is -1 when the support lies above ``loc``, making F the
        upper tail Phi(-z): there Phi(z) would round towards 1 and lose the
        digits that tell the support's points apart.
        """
        sign = -1.0 if self.lo > self.loc else 1.0
        f_lo, f_hi = ndtr(sign * (np.array([self.lo, self.hi]) - self.loc)
                          / self.scale)
        return sign, float(f_lo), float(f_hi)

    def pdf(self, theta: Array | float) -> Array:
        theta = np.asarray(theta, dtype=float)
        if self.degenerate:
            raise DomainError("degenerate type distribution has no density")
        inside = (theta >= self.lo) & (theta <= self.hi)
        if self.kind == "uniform":
            return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)
        _, f_lo, f_hi = self._tails()
        z = (theta - self.loc) / self.scale
        norm = abs(f_hi - f_lo) * self.scale * math.sqrt(2.0 * math.pi)
        return np.where(inside, np.exp(-0.5 * z * z) / norm, 0.0)

    def cdf(self, theta: Array | float) -> Array:
        theta = np.asarray(theta, dtype=float)
        if self.degenerate:
            return np.where(theta >= self.lo, 1.0, 0.0)
        if self.kind == "uniform":
            return np.clip((theta - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        sign, f_lo, f_hi = self._tails()
        z = (np.clip(theta, self.lo, self.hi) - self.loc) / self.scale
        return (ndtr(sign * z) - f_lo) / (f_hi - f_lo)

    def ppf(self, q: Array | float) -> Array:
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise DomainError("quantile level outside [0, 1]")
        if self.degenerate:
            return np.full_like(q, self.lo)
        if self.kind == "uniform":
            return self.lo + q * (self.hi - self.lo)
        sign, f_lo, f_hi = self._tails()
        # count from the end where F is smaller, so that no level is the
        # difference of two nearly equal tail probabilities
        if sign > 0:
            level = f_lo + q * (f_hi - f_lo)
        else:
            level = f_hi + (1.0 - q) * (f_lo - f_hi)
        theta = np.clip(self.loc + self.scale * sign * ndtri(level),
                        self.lo, self.hi)
        return np.where(q == 0.0, self.lo, np.where(q == 1.0, self.hi, theta))


_EULER = float(np.euler_gamma)


@dataclass(frozen=True)
class NoiseFamily:
    """Performance distributions indexed by their mean fitness.

    Kinds: ``normal`` (sd = dispersion), ``gumbel`` (scale = dispersion,
    location shifted so the mean is exactly mu) and ``exponential`` (mean
    mu).  The mean fixes an exponential law, so exponential noise takes no
    dispersion: only the default 1.0 is accepted.  All three are ordered
    by first-order stochastic dominance in mu.
    """

    kind: str
    dispersion: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _NOISE_KINDS:
            raise DomainError(f"unknown noise kind {self.kind!r}")
        if self.kind == "exponential":
            if self.dispersion != 1.0:
                raise DomainError(f"exponential noise takes no dispersion, "
                                  f"got {self.dispersion!r}")
        elif not (math.isfinite(self.dispersion) and self.dispersion > 0):
            raise DomainError(f"noise dispersion must be positive and finite, "
                              f"got {self.dispersion!r}")

    def loc_scale(self, mu: Array | float) -> tuple[Array, Array]:
        """Decompose H_mu as loc + scale * Z with Z a fixed base variate."""
        mu = np.asarray(mu, dtype=float)
        if self.kind == "normal":
            return mu, np.full_like(mu, self.dispersion)
        if self.kind == "gumbel":
            return mu - _EULER * self.dispersion, np.full_like(mu, self.dispersion)
        if np.any(mu < 0):
            raise DomainError("exponential noise needs non-negative mean")
        return np.zeros_like(mu), mu

    def z_ppf(self, q: Array | float) -> Array:
        """Quantile of the standardized base variate Z."""
        q = np.asarray(q, dtype=float)
        if self.kind == "normal":
            return ndtri(q)
        if self.kind == "gumbel":
            return -np.log(-np.log(q))
        return -np.log1p(-q)

    def cdf(self, s: Array | float, mu: Array | float) -> Array:
        s = np.asarray(s, dtype=float)
        loc, scale = self.loc_scale(mu)
        if self.kind == "exponential":
            with np.errstate(divide="ignore", invalid="ignore"):
                z = np.where(scale > 0, s / np.where(scale > 0, scale, 1.0), np.inf)
            out = -np.expm1(-np.maximum(z, 0.0))
            return np.where(s < 0, 0.0, np.where(scale > 0, out, (s >= 0) * 1.0))
        z = (s - loc) / scale
        if self.kind == "normal":
            return ndtr(z)
        # the cdf is exactly 0 below z = -40 and exactly 1 above 40, and the
        # clip keeps exp(-z) from overflowing for a tiny dispersion
        return np.exp(-np.exp(-np.clip(z, -40.0, 40.0)))

    def pdf(self, s: Array | float, mu: Array | float) -> Array:
        s = np.asarray(s, dtype=float)
        loc, scale = self.loc_scale(mu)
        if self.kind == "exponential":
            # a zero mean is a point mass at 0: no density off it, and no
            # infinite rate to multiply by a zero score
            lam = 1.0 / np.where(scale > 0, scale, 1.0)
            out = lam * np.exp(-lam * np.maximum(s, 0.0))
            return np.where((s < 0) | (scale <= 0), 0.0, out)
        z = (s - loc) / scale
        # both densities are exactly 0 past z = -40 (and the normal one past
        # 40 too); the clip keeps z * z and exp(-z) from overflowing there
        if self.kind == "normal":
            z = np.clip(z, -40.0, 40.0)
            return np.exp(-0.5 * z * z) / (scale * math.sqrt(2.0 * math.pi))
        z = np.maximum(z, -40.0)
        return np.exp(-z - np.exp(-z)) / scale

    def _standard_draws(self, rng: np.random.Generator, shape) -> Array:
        """Draws of the base variate Z of ``loc_scale``, in stream order."""
        if self.kind == "normal":
            return rng.standard_normal(shape)
        if self.kind == "gumbel":
            return rng.gumbel(0.0, 1.0, shape)
        return rng.standard_exponential(shape)


@dataclass(frozen=True)
class PrizeVector:
    """Rank-ordered awards, non-negative and non-increasing."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"prizes must be finite, got {list(vals)!r}")
        if any(v < 0 for v in vals):
            raise DomainError("prizes must be non-negative")
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise DomainError("prizes must be non-increasing in rank")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return float(sum(self.values))

    @property
    def top(self) -> float:
        return self.values[0] if self.values else 0.0

    def padded(self, n: int) -> np.ndarray:
        """Prizes as a length-n array, zero beyond the listed ranks."""
        if len(self.values) > n:
            raise DomainError(f"{len(self.values)} prizes for {n} ranks")
        out = np.zeros(n)
        out[: len(self.values)] = self.values
        return out

    def gaps(self, n: int) -> np.ndarray:
        """Adjacent prize gaps R_k - R_{k+1} for k = 1..n-1."""
        padded = self.padded(max(n, len(self.values)))
        return padded[:-1] - padded[1:] if n > 1 else np.zeros(0)


@dataclass(frozen=True)
class Scenario:
    """Immutable bundle of primitives defining one contest environment."""

    nu: ProductionForm
    xi: MechanizationForm
    cost: CostForm
    types: TypeDistribution
    noise: NoiseFamily = field(default_factory=lambda: NoiseFamily("normal", 1.0))
    players: int = 2
    prizes: PrizeVector = field(default_factory=lambda: PrizeVector((1.0,)))

    def __post_init__(self) -> None:
        if (isinstance(self.players, bool) or not isinstance(self.players, int)
                or self.players < 1):
            raise DomainError("players must be a positive integer")
        if len(self.prizes) > self.players:
            raise DomainError("more prizes than players")

    @property
    def support(self) -> tuple[float, float]:
        return (self.types.lo, self.types.hi)

    def unbounded_reason(self) -> str | None:
        """Why mu - C(mu, theta) has no bounded maximiser, or None if it has one.

        Marginal cost outgrows every marginal product unless the cost is
        linear and a channel's margin never decays: linear xi (margin 1)
        or a constant-margin nu (margin theta, largest at the top type).
        A kappa at or below that margin makes the no-contest optimum flat
        (equal) or unbounded (below).
        """
        if self.cost.kind != "linear":
            return None
        kappa, hi = self.cost.kappa, self.types.hi
        if self.xi.kind == "linear" and kappa <= 1.0:
            margin = "the linear mechanistic margin 1"
        elif self.nu._constant_margin and kappa <= hi:
            margin = f"the top type's constant creative margin {hi:g}"
        else:
            return None
        return (f"no bounded no-contest optimum: linear cost kappa={kappa:g} "
                f"does not exceed {margin}")

    def check_theta(self, theta: Array | float) -> None:
        """Raise :class:`DomainError` if a type in ``theta`` lies outside the
        support; an empty array passes."""
        theta = np.asarray(theta, dtype=float)
        lo, hi = self.support
        for t in (float(theta.min()), float(theta.max())) if theta.size else ():
            if not lo <= t <= hi:
                raise DomainError(f"type {t!r} outside support [{lo}, {hi}]")

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "nu": {"kind": self.nu.kind},
            "xi": {"kind": self.xi.kind},
            "cost": {"kind": self.cost.kind, "kappa": self.cost.kappa},
            "types": {"kind": self.types.kind, "support": [self.types.lo, self.types.hi]},
            "noise": {"kind": self.noise.kind, "dispersion": self.noise.dispersion},
            "players": self.players,
            "prizes": list(self.prizes.values),
        }
        if self.nu.alpha is not None:
            d["nu"]["alpha"] = self.nu.alpha
        if self.xi.alpha is not None:
            d["xi"]["alpha"] = self.xi.alpha
        if self.types.kind == "truncated-normal":
            d["types"]["loc"] = self.types.loc
            d["types"]["scale"] = self.types.scale
        return d

    @property
    def scenario_id(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()[:12]

    def with_prizes(self, prizes) -> "Scenario":
        pv = prizes if isinstance(prizes, PrizeVector) else PrizeVector(tuple(prizes))
        return replace(self, prizes=pv)

    def with_players(self, players: int) -> "Scenario":
        return replace(self, players=players)


# ---------------------------------------------------------------------------
# configuration loading


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in mapping:
        raise DomainError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _section(config: dict, key: str, default: dict | None = None) -> dict:
    """The JSON object under ``key``, required unless it has a ``default``."""
    cfg = _require(config, key, "scenario") if default is None else config.get(key, default)
    if not isinstance(cfg, dict):
        raise DomainError(f"{key} must be a JSON object, got {cfg!r}")
    return cfg


def _number(value: Any, name: str) -> float:
    """``value`` as a float; a bool or a non-number raises, naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    extra = set(mapping) - allowed
    if extra:
        raise DomainError(f"{where}: unknown field(s) {sorted(extra)}")


def scenario_from_dict(config: dict[str, Any]) -> Scenario:
    """Build a :class:`Scenario` from a plain configuration mapping.

    The accepted keys and their defaults are the ones read below; the
    README's "Scenario files" section describes the format.
    Raises :class:`DomainError` naming the offending field on any problem.
    """
    if not isinstance(config, dict):
        raise DomainError("scenario config must be a JSON object")
    _check_keys(config, {"nu", "xi", "cost", "types", "noise", "players", "prizes"},
                "scenario")

    forms = []
    for key, form in (("nu", ProductionForm), ("xi", MechanizationForm)):
        cfg = _section(config, key)
        _check_keys(cfg, {"kind", "alpha"}, key)
        kind = _require(cfg, "kind", key)
        alpha = cfg.get("alpha", 0.5 if kind == "power" else None)
        forms.append(form(kind, None if alpha is None else _number(alpha, f"{key}.alpha")))
    nu, xi = forms

    cost_cfg = _section(config, "cost")
    _check_keys(cost_cfg, {"kind", "kappa"}, "cost")
    kind = _require(cost_cfg, "kind", "cost")
    cost = CostForm(kind, _number(cost_cfg.get("kappa", 1.0 if kind == "linear" else 0.5),
                                  "cost.kappa"))

    types_cfg = _section(config, "types")
    _check_keys(types_cfg, {"kind", "support", "loc", "scale"}, "types")
    kind = _require(types_cfg, "kind", "types")
    support = _require(types_cfg, "support", "types")
    if (not isinstance(support, (list, tuple)) or len(support) != 2):
        raise DomainError("types.support must be a [lo, hi] pair")
    lo, hi = (_number(v, f"types.support[{i}]") for i, v in enumerate(support))
    if kind == "truncated-normal":
        loc = _number(types_cfg.get("loc", 0.5 * (lo + hi)), "types.loc")
        scale = _number(types_cfg.get("scale", 0.25 * (hi - lo)), "types.scale")
        types = TypeDistribution(kind, lo, hi, loc, scale)
    else:
        if "loc" in types_cfg or "scale" in types_cfg:
            raise DomainError("types: loc/scale only apply to truncated-normal")
        types = TypeDistribution(kind, lo, hi)

    noise_cfg = _section(config, "noise", {"kind": "normal"})
    _check_keys(noise_cfg, {"kind", "dispersion"}, "noise")
    noise = NoiseFamily(_require(noise_cfg, "kind", "noise"),
                        _number(noise_cfg.get("dispersion", 1.0), "noise.dispersion"))

    prizes_cfg = config.get("prizes", [1.0])
    if not isinstance(prizes_cfg, (list, tuple)):
        raise DomainError("prizes must be a list of numbers")
    prizes = PrizeVector(tuple(_number(v, f"prizes[{i}]") for i, v in enumerate(prizes_cfg)))

    return Scenario(nu, xi, cost, types, noise, config.get("players", 2), prizes)


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON file."""
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return scenario_from_dict(config)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# assumption validation


@dataclass(frozen=True)
class AssumptionCheck:
    check_id: str
    status: str  # "pass" | "warn" | "fail"
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the assumption checks for one scenario.

    An unbounded no-contest optimum is a failure; regularity conditions
    that canonical configurations deliberately relax (a linear
    mechanistic channel, say) only warn.  Nothing here raises: the
    solvers decide for themselves what they can handle.
    """

    scenario_id: str
    checks: tuple[AssumptionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def summary(self) -> str:
        lines = [f"scenario {self.scenario_id}:"]
        for c in self.checks:
            lines.append(f"  [{c.status.upper():4s}] {c.check_id}: {c.detail}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario_id": self.scenario_id,
            "ok": self.ok,
            "checks": [
                {"id": c.check_id, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
        }


def validate_assumptions(scenario: Scenario) -> ValidationReport:
    """Check the assumptions that can differ between accepted scenarios.

    The paper's structural assumptions hold for every accepted form, so
    they are not sampled: with types non-negative, nu_a(a, theta) rises
    in theta (increasing differences, hence monotone best responses;
    Milgrom & Shannon 1994), and each noise family is a location or
    scale family in mu, ordered by first-order stochastic dominance.
    Three checks, one entry each: a bounded no-contest optimum (the one
    that can fail; :meth:`Scenario.unbounded_reason`), the boundary
    condition (xi'(0) beats c'(0)) and the vanishing limit of xi'.
    """
    lo, hi = scenario.support
    reason = scenario.unbounded_reason()
    checks = [AssumptionCheck(
        "bounded-optimum", "pass" if reason is None else "fail",
        reason or "marginal cost outgrows every marginal product: the "
                  "no-contest optimum is bounded")]

    # boundary condition: xi'(0) > c'(0); endpoint creation margins noted
    xi0 = float(scenario.xi.deriv(0.0))
    c0 = float(scenario.cost.deriv(0.0))
    nu_lo = float(scenario.nu.deriv_a(0.0, lo))
    nu_hi = float(scenario.nu.deriv_a(0.0, hi))
    note = (f"xi'(0)={xi0:.4g}, c'(0)={c0:.4g}; creation margin at zero effort "
            f"runs from {nu_lo:.4g} (lowest type) to {nu_hi:.4g} (highest type) "
            f"on the support [{lo:g}, {hi:g}]")
    if xi0 > c0:
        checks.append(AssumptionCheck("boundary", "pass", note))
    else:
        checks.append(AssumptionCheck(
            "boundary", "warn",
            f"mechanization unprofitable at the margin: {note}"))

    # vanishing mechanistic returns far out
    tail = float(scenario.xi.deriv(1e12))
    if tail < 1e-3:
        checks.append(AssumptionCheck(
            "mechanization-limit", "pass",
            f"xi'(b) -> 0 (xi'(1e12) = {tail:.2e})"))
    else:
        checks.append(AssumptionCheck(
            "mechanization-limit", "warn",
            f"xi' does not vanish: xi'(1e12) = {tail:.4g}; linear xi relaxes "
            "the paper's vanishing-margin assumption"))

    return ValidationReport(scenario.scenario_id, tuple(checks))
