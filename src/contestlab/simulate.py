"""Monte Carlo contest execution and synthetic panel analysis.

The pieces chain into a pipeline: solve an equilibrium, replay contests
under it, expand each player's run into a submission trajectory, score
the trajectory with the Mann-Kendall trend statistic, and fit
fixed-effects regressions on the resulting panel.

Randomness uses counter-based Philox streams keyed by ``(seed,
stream_index)``: replications are independent and reproducible, and
contest j always draws from stream j.

Contests are simulated in batches: a short loop makes each contest's
draws from its own stream, then types, targets, allocations, scores,
ranks and payoffs are computed once for the whole (contests x players)
batch.  Every step after the draws is elementwise or row-wise, so a
contest's record is the same in any batch, and :func:`run_contest` is
the batch of one.

A profile carries its scenario, so the simulators take the profile
alone; :func:`run_contest` and :class:`PanelCell` refuse one that did
not converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._tables import _write_tables, write_csv
from .costmin import allocate_grid
from .equilibrium import StrategyProfile, solve_equilibrium
from .errors import DomainError
from .model import Array, PrizeVector, Scenario

PANEL_COLUMNS = (
    "contest_id",
    "player_id",
    "type",
    "a",
    "b",
    "mu",
    "score_final",
    "mk_S",
    "mk_Z",
    "prize_value",
    "prize_skew",
)

CONTEST_COLUMNS = (
    "contest_id",
    "player_id",
    "type",
    "a",
    "b",
    "mu",
    "score",
    "rank",
    "prize",
    "payoff",
)

_MK_BLOCK = 8192   # series per block of the Mann-Kendall S loop


def _streams(seed: int, streams: Iterable[int]) -> Iterator[np.random.Generator]:
    """The Philox streams (seed, j) for each j in ``streams``, in order.

    One bit generator serves them all: its key is set to (seed, j) and its
    counter and buffers to zero, so each stream draws exactly what a
    fresh ``Philox(key=[seed, j])`` would.  The generator yielded for j
    is the same object each time and is valid until the next is taken.
    """
    if seed < 0:
        raise DomainError("seed and stream index must be non-negative")
    bitgen = np.random.Philox(key=[int(seed), 0])
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]     # uint64 (seed, 0); the setter copies it
    for j in streams:
        if j < 0:
            raise DomainError("seed and stream index must be non-negative")
        key[1] = j
        bitgen.state = fresh
        yield rng


# ---------------------------------------------------------------------------
# Mann-Kendall trend statistic


@dataclass(frozen=True)
class MannKendall:
    """Trend statistic of one series: S, tie-corrected variance, and Z."""

    s: int
    var_s: float
    z: float
    n: int


def mann_kendall(series) -> MannKendall:
    """Mann-Kendall S = sum of sign(x_j - x_i) over i < j, with normal Z.

    The variance uses the tie correction
    ``[n(n-1)(2n+5) - sum_t t(t-1)(2t+5)] / 18`` and Z applies the usual
    continuity shift: (S-1)/sd for S > 0, (S+1)/sd for S < 0, else 0.
    An all-tied series has zero variance and Z = 0 by convention.
    """
    try:
        x = np.asarray(series, dtype=float).ravel()
    except (TypeError, ValueError) as exc:
        raise DomainError(f"Mann-Kendall series must be numeric ({exc})") from None
    n = x.size
    if n < 2:
        raise DomainError(f"Mann-Kendall needs at least 2 observations, got {n}")
    if not np.all(np.isfinite(x)):
        raise DomainError("Mann-Kendall series must be finite")
    s, var_s, z = _mk_batch(x[None, :])
    return MannKendall(s=int(s[0]), var_s=float(var_s[0]), z=float(z[0]), n=n)


def _mk_batch(scores: Array) -> tuple[Array, Array, Array]:
    """Row-wise Mann-Kendall for a (rows, length) matrix of series."""
    rows, n = scores.shape
    # sum over offsets k within blocks of series, each copied so that its
    # series run down the columns: every sum then adds whole contiguous
    # rows, and the copy and its temporaries stay a block's size
    s = np.zeros(rows)
    for lo in range(0, rows, _MK_BLOCK):
        by_step = np.ascontiguousarray(scores[lo:lo + _MK_BLOCK].T)
        for k in range(1, n):
            diff = by_step[k:] - by_step[:-k]
            s[lo:lo + _MK_BLOCK] += np.sign(diff, out=diff).sum(axis=0)

    # tie correction from the run lengths of the sorted rows that have
    # ties; every row opens a run, so no run crosses into the next row
    srt = np.sort(scores, axis=1)
    same = srt[:, 1:] == srt[:, :-1]
    tied = np.flatnonzero(same.any(axis=1))
    opens = np.ones((tied.size, n), dtype=bool)
    np.logical_not(same[tied], out=opens[:, 1:])
    starts = np.flatnonzero(opens)
    t = np.diff(starts, append=opens.size).astype(float)
    corr = np.zeros(rows)
    corr[tied] = np.bincount(starts // n, weights=t * (t - 1.0) * (2.0 * t + 5.0),
                             minlength=tied.size)

    var_s = (n * (n - 1) * (2 * n + 5) - corr) / 18.0
    z = np.zeros(rows)
    ok = var_s > 0.0
    pos = ok & (s > 0)
    neg = ok & (s < 0)
    z[pos] = (s[pos] - 1.0) / np.sqrt(var_s[pos])
    z[neg] = (s[neg] + 1.0) / np.sqrt(var_s[neg])
    return s.astype(np.int64), var_s, z


# ---------------------------------------------------------------------------
# Contest execution


@dataclass(frozen=True)
class ContestOutcome:
    """One simulated contest: per-player arrays plus its reproduction key.

    ``rank`` is 1 for the best realised score; ranks are a permutation of
    1..I and the rank-k player receives the k-th prize.  Every record
    satisfies payoff = prize + score - c(a + b) exactly.
    """

    scenario_id: str
    seed: int
    replication: int
    theta: Array
    a: Array
    b: Array
    mu: Array
    score: Array
    rank: Array
    prize: Array
    payoff: Array


def run_contest(
    profile: StrategyProfile,
    seed: int,
    replication: int = 0,
) -> ContestOutcome:
    """Simulate one contest under a converged symmetric strategy profile.

    Types are drawn i.i.d. from the profile scenario's type distribution,
    efforts follow the least-cost allocation at the profile's fitness
    target, each player gets one performance draw, and ranks (best first)
    are paid from the prize vector.  Deterministic in (seed, replication).
    """
    profile.require_converged()
    batch = _contest_batch(profile, seed, [replication])
    return ContestOutcome(
        scenario_id=profile.scenario.scenario_id,
        seed=int(seed),
        replication=int(replication),
        **{name: values[0] for name, values in batch.items()},
    )


def _contest_batch(
    profile: StrategyProfile,
    seed: int,
    replications: Sequence[int],
) -> dict[str, Array]:
    """Contests ``replications`` under one profile as (contests, players) arrays.

    Row i is contest ``replications[i]``, drawn from its own stream
    (seed, replications[i]): the type uniforms, then the noise variates.
    Everything after the draws runs once on the whole batch and is
    elementwise or row-wise, so a row does not depend on which other
    contests share the batch.  Keys are the per-player fields of
    :class:`ContestOutcome`.
    """
    scenario = profile.scenario
    count = scenario.players
    u = np.empty((len(replications), count))
    z = np.empty_like(u)
    for i, rng in enumerate(_streams(seed, replications)):
        rng.random(out=u[i])
        scenario.noise._standard_draws(rng, z[i])
    theta = scenario.types.ppf(u)
    mu = profile.mu_at(theta)
    grid = allocate_grid(scenario, mu, theta)
    loc, scale = scenario.noise.loc_scale(mu)
    score = loc + scale * z

    order = np.argsort(-score, axis=1, kind="stable")
    rank = np.empty(score.shape, dtype=np.int64)
    np.put_along_axis(rank, order, np.arange(1, count + 1)[None, :], axis=1)
    prize = scenario.prizes.padded(count)[rank - 1]
    return {
        "theta": theta,
        "a": grid.a,
        "b": grid.b,
        "mu": mu,
        "score": score,
        "rank": rank,
        "prize": prize,
        "payoff": prize + score - grid.cost,
    }


# ---------------------------------------------------------------------------
# Submission trajectories


def _trajectory_matrix(
    a: Array,
    b: Array,
    length: int,
    drift_scale: float,
    noise_scale: float,
    base: Array,
    eps: Array,
) -> Array:
    """score_t = base + drift*(a/(a+b))*t + noise*(b/(a+b))*eps_t, clamped.

    Creative effort buys a deterministic upward trend, mechanistic effort
    buys noisy level jitter; a = b = 0 yields a flat series at base.
    """
    total = a + b
    with np.errstate(invalid="ignore", divide="ignore"):
        creative = np.where(total > 0, a / total, 0.0)
        mech = np.where(total > 0, b / total, 0.0)
    t = np.arange(length, dtype=float)
    raw = (
        np.asarray(base, dtype=float)[:, None]
        + drift_scale * creative[:, None] * t[None, :]
        + noise_scale * mech[:, None] * eps
    )
    return np.clip(raw, 0.0, 100.0)


# ---------------------------------------------------------------------------
# Fixed-effects OLS


@dataclass(frozen=True)
class RegressionResult:
    """Within-estimator fit: coefficients, homoskedastic errors, fit stats.

    The fields are what ``regress.json`` records.
    """

    names: tuple[str, ...]
    coef: Array
    se: Array
    r_squared: float
    nobs: int
    n_groups: int
    df_resid: int

    def __getitem__(self, name: str) -> float:
        return float(self.coef[self.names.index(name)])

    def to_dict(self) -> dict:
        return {
            "coefficients": {n: float(c) for n, c in zip(self.names, self.coef)},
            "standard_errors": {n: float(s) for n, s in zip(self.names, self.se)},
            "r_squared": float(self.r_squared),
            "nobs": int(self.nobs),
            "n_groups": int(self.n_groups),
            "df_resid": int(self.df_resid),
        }


def _householder_r(a: Array) -> Array:
    """The (n x n) upper triangular R with R'R = A'A, overwriting ``a``.

    Unblocked Householder QR (Golub & Van Loan, *Matrix Computations*,
    section 5.2) in numpy's elementwise kernels, so it wakes no BLAS
    worker threads.  A Fortran-ordered ``a`` makes each column update one
    contiguous axpy.  Rows of R past the m-th of an (m x n) ``a`` are zero.
    """
    m, n = a.shape
    for j in range(min(m, n)):
        v = a[j:, j]
        norm = np.sqrt(np.einsum("i,i->", v, v))
        if norm == 0.0:
            continue
        alpha = -norm if v[0] >= 0.0 else norm  # the sign with no cancellation
        v[0] -= alpha
        # I - v v' / (norm |v_0|) reflects the column onto alpha e_1
        w = np.einsum("i,ij->j", v, a[j:, j + 1:]) / (norm * abs(v[0]))
        for c, w_c in enumerate(w, start=j + 1):
            a[j:, c] -= w_c * v
        a[j, j] = alpha
    r = np.zeros((n, n))
    r[:min(m, n)] = np.triu(a[:n])
    return r


def _triu_inverse(r: Array) -> Array:
    """Inverse of an invertible upper triangular ``r``, left unchanged, by
    back substitution from the last row up in einsum, so no BLAS call."""
    k = r.shape[0]
    inv = np.zeros((k, k))
    for i in range(k - 1, -1, -1):
        # row i is (e_i - r[i, i+1:] @ inv[i+1:]) / r[i, i]
        inv[i, i + 1:] = -np.einsum("j,jc->c", r[i, i + 1:], inv[i + 1:, i + 1:])
        inv[i, i] = 1.0
        inv[i] /= r[i, i]
    return inv


@dataclass(frozen=True)
class _Within:
    """Panel columns demeaned within groups, ready for any number of fits.

    ``values`` (rows x columns, Fortran order) holds the demeaned columns.
    """

    names: tuple[str, ...]
    n_groups: int
    values: Array

    @classmethod
    def of(cls, panel: Mapping[str, Array], group: str, names: Sequence[str]) -> "_Within":
        """Demean ``names`` within ``group``, one bincount per column."""
        missing = [c for c in (*names, group) if c not in panel]
        if missing:
            raise DomainError(f"panel is missing columns {missing}")
        names = tuple(dict.fromkeys(names))
        groups = np.asarray(panel[group])
        # a NaN or blank label would pool unrelated rows into one group;
        # other text labels are fine
        if groups.dtype.kind in "fc" and not np.all(np.isfinite(groups)):
            raise DomainError(f"group column {group!r} holds non-finite values")
        if groups.dtype.kind in "OU" and np.any(groups == ""):
            raise DomainError(f"group column {group!r} holds blank labels")
        labels, inverse = np.unique(groups, return_inverse=True)
        counts = np.bincount(inverse)
        values = np.empty((inverse.size, len(names)), order="F")
        for j, name in enumerate(names):
            col = values[:, j]
            try:
                col[:] = panel[name]
            except (TypeError, ValueError):
                raise DomainError(f"panel column {name!r} is not numeric") from None
            if not np.all(np.isfinite(col)):
                raise DomainError(f"panel column {name!r} holds non-finite values")
            means = np.bincount(inverse, weights=col, minlength=labels.size) / counts
            col -= means[inverse]
        return cls(names, labels.size, values)

    def fit(self, outcome: str, regressors: Sequence[str]) -> RegressionResult:
        """Least squares from one numpy Householder R of the demeaned [X | y].

        R11 has the column norms of the demeaned X, so the rank rule reads
        its diagonal; the inverse of R11 gives beta and the standard errors.
        """
        cols = [self.names.index(c) for c in (*regressors, outcome)]
        nobs, k, n_groups = self.values.shape[0], len(regressors), self.n_groups
        r = _householder_r(self.values[:, cols])
        r11, z, rho = r[:k, :k], r[:k, k], r[k, k]

        norm = np.sqrt(np.max(np.einsum("ij,ij->j", r11, r11)))
        tol = max(nobs, k) * np.finfo(float).eps * norm
        bad = [name for name, d in zip(regressors, np.diag(r11)) if abs(d) <= tol]
        if bad:
            raise DomainError(
                f"design is rank deficient after demeaning; collinear columns: {bad}"
            )

        df_resid = nobs - n_groups - k
        if df_resid < 1:
            raise DomainError(
                f"not enough observations: {nobs} rows, {n_groups} groups, {k} regressors"
            )

        r_inv = _triu_inverse(r11)
        beta = np.einsum("ij,j->i", r_inv, z)
        rss = float(rho * rho)
        y_dm = self.values[:, cols[-1]]
        tss = float(np.einsum("i,i->", y_dm, y_dm))
        r_squared = 1.0 if tss == 0.0 else 1.0 - rss / tss
        # diag of (X'X)^-1 = R^-1 R^-T is the squared row norms of R^-1
        se = np.sqrt(rss / df_resid * np.einsum("ij,ij->i", r_inv, r_inv))

        return RegressionResult(
            names=tuple(regressors),
            coef=beta,
            se=se,
            r_squared=float(r_squared),
            nobs=int(nobs),
            n_groups=int(n_groups),
            df_resid=int(df_resid),
        )


def fe_ols(panel: Mapping[str, Array], outcome: str, regressors: Sequence[str], *,
           group: str = "contest_id") -> RegressionResult:
    """Within (fixed-effects) OLS of ``outcome`` on ``regressors``, with one
    fixed effect per value of the ``group`` column (one per contest).

    Each column is demeaned with one bincount, and the fit takes one
    numpy Householder QR of the demeaned [X | y] for its R factor:
    beta = R11^-1 z, RSS = rho^2, and the standard errors come from the
    row norms of R11^-1 (back substitution).  They are homoskedastic with
    dof = N - G - k.  No step calls BLAS, so a fit wakes no BLAS worker
    threads.  Regressor j is spanned by those listed before it when
    |R11[j, j]| <= max(N, k) * eps * (the largest column norm of the
    demeaned X).  DomainError names every such column, and also flags
    too few observations, missing, non-numeric or non-finite columns and
    non-finite or blank group labels: the input is at fault, not a solver.
    """
    if not regressors:
        raise DomainError("regression needs at least one regressor")
    within = _Within.of(panel, group, (*regressors, outcome))
    return within.fit(outcome, regressors)


# ---------------------------------------------------------------------------
# Panel construction helpers


def type_bin_edges(scenario: Scenario, bins: int = 5) -> Array:
    """Interior population quantiles splitting types into equal-mass bins."""
    if bins < 2:
        raise DomainError(f"need at least 2 bins, got {bins}")
    qs = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    return np.asarray(scenario.types.ppf(qs), dtype=float)


# ---------------------------------------------------------------------------
# Synthetic panel pipeline


@dataclass(frozen=True)
class PanelCell:
    """One contest design: a prize budget, its split, and a converged equilibrium."""

    prize_value: float
    prize_skew: int
    profile: StrategyProfile

    def __post_init__(self) -> None:
        self.profile.require_converged()


@dataclass(frozen=True)
class SyntheticPanel:
    """Flat per-player panel over many simulated contests.

    ``columns`` holds every per-player record of each contest once: the
    trajectory columns of ``PANEL_COLUMNS`` plus the contest outcome
    columns (score, rank, prize, payoff) of ``CONTEST_COLUMNS``.  The two
    tables therefore describe the same contests row for row.
    ``tables_to_csv`` writes both in one pass, formatting the columns
    they share once; ``to_csv`` writes the panel table alone.
    """

    columns: dict[str, Array]

    @property
    def n_rows(self) -> int:
        return int(self.columns["contest_id"].size)

    def to_csv(self, path) -> None:
        write_csv(path, self.columns, order=PANEL_COLUMNS)

    def tables_to_csv(self, contests_path, panel_path) -> None:
        _write_tables(self.columns, [(contests_path, CONTEST_COLUMNS),
                                     (panel_path, PANEL_COLUMNS)])


def panel_cells(
    scenario: Scenario,
    *,
    players: int = 200,
    prize_values: Sequence[float] = (1.0, 4.0, 16.0),
    skew_weights: Sequence[float] = (0.5, 0.3, 0.2),
    grid_size: int = 201,
    tol: float = 1e-5,
) -> tuple[PanelCell, ...]:
    """Solve the equilibrium for each prize-value x skew cell.

    Skewed cells (prize_skew = 1) split the budget over the top three
    ranks with ``skew_weights``; diffuse cells (prize_skew = 0) pay the
    budget evenly across all ranks, which matches the few-prizes proxy
    for skewness: at most three prizes means skewed.
    """
    weights = tuple(float(w) for w in skew_weights)
    if len(weights) > 3 or abs(sum(weights) - 1.0) > 1e-12:
        raise DomainError("skew weights must sum to 1 over at most three ranks")
    if players < max(len(weights), 2):
        raise DomainError(f"need at least {max(len(weights), 2)} players, got {players}")
    base = scenario.with_players(players)
    cells = []
    for value in prize_values:
        value = float(value)
        if value <= 0:
            raise DomainError(f"prize budget must be positive, got {value}")
        for skew in (1, 0):
            if skew:
                prizes = PrizeVector(tuple(w * value for w in weights))
            else:
                prizes = PrizeVector((value / players,) * players)
            profile = solve_equilibrium(
                base.with_prizes(prizes),
                grid_size=grid_size,
                tol=tol,
            )
            cells.append(PanelCell(prize_value=value, prize_skew=skew, profile=profile))
    return tuple(cells)


def synthetic_panel(
    scenario: Scenario,
    *,
    players: int,
    cells: Sequence[PanelCell],
    n_contests: int = 500,
    seed: int = 0,
    traj_length: int = 10,
    drift_scale: float = 0.3,
    noise_scale: float = 2.0,
    score_base: float = 50.0,
    score_gain: float = 5.0,
) -> SyntheticPanel:
    """Simulate a contest panel across ``players``-player cells.

    ``scenario`` is not read (the cells carry their own); the benchmark's
    panel workload still passes it.

    The cells usually come from :func:`panel_cells` (prize-value x skew
    designs) or are one cell holding an already-solved profile.
    Contest j runs under cell j mod n_cells with Philox stream j; each
    cell's contests are simulated as one batch.  Contest j's trajectories
    use stream n_contests + j, so every draw in the build is pinned to
    (seed, a stream index).  Each player's trajectory starts at
    an affine transform of their realised score (score_base +
    score_gain * s) and trends with their creative share; the final
    trajectory value is the ``score_final`` column.
    """
    if n_contests < 1:
        raise DomainError(f"need at least one contest, got {n_contests}")
    if traj_length < 2:
        raise DomainError(f"trajectory length must be >= 2, got {traj_length}")
    for name, value in dict(drift_scale=drift_scale, noise_scale=noise_scale,
                            score_base=score_base, score_gain=score_gain).items():
        if not np.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    cells = tuple(cells)
    if not cells:
        raise DomainError("no panel cells")
    counts = sorted({cell.profile.scenario.players for cell in cells})
    if counts != [players]:
        raise DomainError(f"panel of {players} players, but the cells have {counts}")
    total = n_contests * players

    n_cells = len(cells)
    cols: dict[str, Array] = {
        "contest_id": np.repeat(np.arange(n_contests), players),
        "player_id": np.tile(np.arange(players), n_contests),
    }
    for c, cell in enumerate(cells[:n_contests]):
        batch = _contest_batch(cell.profile, seed, range(c, n_contests, n_cells))
        for name, values in batch.items():
            name = "type" if name == "theta" else name
            if name not in cols:
                cols[name] = np.empty(total, dtype=values.dtype)
            cols[name].reshape(n_contests, players)[c::n_cells] = values
    # the columns that outlive this call are allocated before the trajectory
    # temporaries: allocated after them, they kept the heap from shrinking
    # and raised the panel benchmark's peak RSS by 3-19 MB
    cols.update(score_final=np.empty(total), mk_S=np.empty(total, dtype=np.int64),
                mk_Z=np.empty(total))
    cell_of = np.arange(n_contests) % n_cells
    for name, dtype in (("prize_value", float), ("prize_skew", np.int64)):
        per_cell = np.array([getattr(cell, name) for cell in cells], dtype)
        cols[name] = np.repeat(per_cell[cell_of], players)

    eps = np.empty((total, traj_length))
    for j, rng in enumerate(_streams(seed, range(n_contests, 2 * n_contests))):
        rng.standard_normal(out=eps[j * players:(j + 1) * players])
    trajectories = _trajectory_matrix(
        cols["a"],
        cols["b"],
        traj_length,
        float(drift_scale),
        float(noise_scale),
        score_base + score_gain * cols["score"],
        eps,
    )
    cols["score_final"][:] = trajectories[:, -1]
    cols["mk_S"][:], _, cols["mk_Z"][:] = _mk_batch(trajectories)

    return SyntheticPanel(columns=cols)


def panel_regressions(
    panel: Mapping[str, Array],
    edges: Array,
) -> dict[str, RegressionResult]:
    """The four within regressions used to audit a synthetic panel.

    Outcomes are the achieved fitness (``fitness_*``) and the
    Mann-Kendall Z (``mk_*``); each is regressed on the type-bin dummies
    T2..Tk (``*_type``) and again with their products TbxPV with
    ``prize_value`` and TbxPS with ``prize_skew`` (``*_interactions``),
    always with contest fixed effects.  Type bin b holds the types in
    [edges[b-2], edges[b-1]), so bin 1, below the first edge, is the
    base.  The columns are demeaned once and shared by the four fits,
    each as :func:`fe_ols` would make it.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size == 0 or not np.all(np.diff(edges) > 0.0):
        raise DomainError(f"type-bin edges must strictly increase, got {edges.tolist()}")
    missing = [c for c in ("contest_id", "type", "prize_value", "prize_skew", "mu", "mk_Z")
               if c not in panel]
    if missing:
        raise DomainError(f"panel is missing columns {missing}")
    theta = np.asarray(panel["type"], dtype=float)
    if not np.all(np.isfinite(theta)):
        raise DomainError("panel column 'type' holds non-finite values")

    bins = np.digitize(theta, edges) + 1
    data = {name: panel[name] for name in ("contest_id", "mu", "mk_Z")}
    dummies = tuple(f"T{b}" for b in range(2, edges.size + 2))
    for b, dummy in enumerate(dummies, start=2):
        data[dummy] = (bins == b).astype(float)
    for alias, column in (("PV", "prize_value"), ("PS", "prize_skew")):
        values = np.asarray(panel[column], dtype=float)
        for dummy in dummies:
            data[f"{dummy}x{alias}"] = data[dummy] * values
    interactions = tuple(f"{d}x{alias}" for alias in ("PV", "PS") for d in dummies)

    within = _Within.of(data, "contest_id", (*dummies, *interactions, "mu", "mk_Z"))
    out: dict[str, RegressionResult] = {}
    for label, outcome in (("fitness", "mu"), ("mk", "mk_Z")):
        out[f"{label}_type"] = within.fit(outcome, dummies)
        out[f"{label}_interactions"] = within.fit(outcome, dummies + interactions)
    return out
