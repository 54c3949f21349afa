"""Changepoint detection by penalized cost minimization.

Two detectors share one objective: the sum of per-segment costs plus a
penalty ``beta`` per changepoint.

* :func:`pelt_detect` — pruned dynamic program, expected linear time on
  series whose changepoints grow with length.
* :func:`op_detect` — the unpruned O(n^2) optimal-partitioning dynamic
  program. Slower, trivially correct, and used as the oracle against which
  the pruned detector is verified.

Both run the same candidate-evaluation kernel and break cost ties
identically (fewer changepoints first, then the lexicographically earliest
set), so their outputs are comparable changepoint-for-changepoint and
cost-for-cost in exact floats.

Indices: a changepoint ``tau`` means the new segment starts at row ``tau``;
segments are half-open ``[tau_i, tau_{i+1})`` with implicit boundaries 0
and n. Costs accept either a 1-D series or an (n, k) matrix, in which case
the segment cost is the sum of per-column costs over shared boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidConfig, NonFiniteValues, SegmentTooShort, SeriesTooShort,
                     UnknownColumn)
from .frame import TimeSeriesFrame

L2_MEAN = "l2_mean"
GAUSSIAN_NLL = "gaussian_nll"


@dataclass(frozen=True)
class CostModel:
    """Segment cost family.

    ``l2_mean``: sum of squared deviations from the segment mean (Gaussian
    fixed-variance likelihood, the default). ``gaussian_nll``: Gaussian
    negative log-likelihood with free mean and variance, up to an additive
    constant, i.e. ``(len/2) * ln(max(var, variance_floor))``.

    Both are subadditive — splitting a segment never increases total fit
    cost — which is what makes pruning with K = 0 exact.
    """

    kind: str = L2_MEAN
    variance_floor: float = 1e-8

    def __post_init__(self):
        if self.kind not in (L2_MEAN, GAUSSIAN_NLL):
            raise InvalidConfig(f"unknown cost model {self.kind!r}")
        if self.variance_floor <= 0:
            raise InvalidConfig("variance_floor must be positive")

    @property
    def min_len(self) -> int:
        return 2 if self.kind == GAUSSIAN_NLL else 1


@dataclass(frozen=True)
class PenaltyConfig:
    """Linear penalty: adding m changepoints costs ``beta * m``."""

    beta: float

    def __post_init__(self):
        if not 0 <= self.beta < math.inf:
            raise InvalidConfig(f"beta must be a finite number >= 0, got {self.beta}")


@dataclass(frozen=True)
class Segmentation:
    """Ordered changepoints plus the minimized objective value."""

    changepoints: tuple[int, ...]
    n: int
    total_cost: float
    beta: float = 0.0
    cost_model: str = L2_MEAN

    @property
    def m(self) -> int:
        return len(self.changepoints)

    def segments(self) -> list[tuple[int, int]]:
        bounds = (0,) + self.changepoints + (self.n,)
        return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "changepoints": list(self.changepoints),
            "total_cost": self.total_cost,
            "beta": self.beta,
            "cost_model": self.cost_model,
        }


@dataclass
class PeltState:
    """Internals of a pruned run, for inspection and pruning-safety audits.

    ``F[t]`` is the optimal objective over the prefix of length t with
    ``F[0] = -beta`` (so the first segment pays exactly one penalty);
    ``pruned`` records ``(tau, step)`` pairs meaning candidate ``tau`` was
    dropped from the admissible set when processing prefix ``step``.
    """

    F: np.ndarray
    backpointers: np.ndarray
    candidates: np.ndarray
    pruned: list[tuple[int, int]] = field(default_factory=list)


class SegmentCosts:
    """Prefix-sum cost evaluator: O(n k) precompute, O(k) per segment query.

    ``prefix`` is one (2k, n+1) array: row ``c`` holds the running sum of
    column ``c`` and row ``k + c`` the running sum of its squares, each
    starting at 0. :meth:`accumulate` takes the prefix values at the
    segment starts as a (2k, m) block, so the caller decides where they
    come from: a contiguous slice of ``prefix`` when the starts are
    ``0..m-1`` (:func:`op_detect`), or the copy each live candidate keeps
    (:func:`pelt_detect`). Either way the inner loop gathers nothing and
    allocates nothing.
    """

    def __init__(self, values: np.ndarray, model: CostModel | None = None):
        X = np.asarray(values, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ValueError("values must be 1-D or 2-D")
        self.model = model or CostModel()
        self.n = X.shape[0]
        self.k = X.shape[1]
        self.prefix = np.zeros((2 * self.k, self.n + 1))
        for c in range(self.k):
            np.cumsum(X[:, c], out=self.prefix[c, 1:])
            np.cumsum(X[:, c] * X[:, c], out=self.prefix[self.k + c, 1:])

    def accumulate(self, starts: np.ndarray, stop: int, heads: np.ndarray,
                   out: np.ndarray, lenf: np.ndarray, w1: np.ndarray,
                   w2: np.ndarray) -> None:
        """Summed cost of segments [starts_i, stop) into ``out``.

        ``starts`` holds the start rows as floats and ``heads`` holds
        ``prefix[:, starts]``. ``lenf``, ``w1`` and ``w2`` are scratch;
        every buffer is a view of the candidate length. The first column's
        cost is computed in ``out`` itself, so ``w2`` is only touched when
        there are several columns.
        """
        k = self.k
        tail = self.prefix[:, stop]
        floor = self.model.variance_floor
        nll = self.model.kind == GAUSSIAN_NLL
        np.subtract(stop, starts, out=lenf)
        for c in range(k):
            b = out if c == 0 else w2
            np.subtract(tail[c], heads[c], out=w1)
            np.subtract(tail[k + c], heads[k + c], out=b)
            if nll:
                np.divide(b, lenf, out=b)
                np.divide(w1, lenf, out=w1)
                np.multiply(w1, w1, out=w1)
                np.subtract(b, w1, out=b)
                np.maximum(b, floor, out=b)
                np.log(b, out=b)
                np.multiply(b, lenf, out=b)
                np.multiply(b, 0.5, out=b)
            else:
                np.multiply(w1, w1, out=w1)
                np.divide(w1, lenf, out=w1)
                np.subtract(b, w1, out=b)
            if c:
                np.add(out, w2, out=out)

    def cost_open(self, start, stop: int):
        """Cost of rows [start, stop); ``start`` may be a vector."""
        starts = np.atleast_1d(np.asarray(start, dtype=np.int64))
        m = starts.size
        out = np.empty(m)
        self.accumulate(starts.astype(np.float64), stop, self.prefix[:, starts],
                        out, np.empty(m), np.empty(m), np.empty(m))
        return out if np.asarray(start).ndim else float(out[0])

    def cost(self, t1: int, t2: int) -> float:
        """Cost of the inclusive segment [t1, t2]."""
        n = self.n
        if not (0 <= t1 <= t2 < n):
            raise SegmentTooShort(f"invalid segment [{t1}, {t2}] for n={n}")
        if t2 - t1 + 1 < self.model.min_len:
            raise SegmentTooShort(
                f"{self.model.kind} needs segments of >= {self.model.min_len} points"
            )
        return float(self.cost_open(t1, t2 + 1))


def segment_cost(values, t1: int, t2: int, model: CostModel | None = None) -> float:
    """Cost of the inclusive segment ``values[t1..t2]`` under ``model``."""
    return SegmentCosts(values, model).cost(t1, t2)


def _as_matrix(values) -> np.ndarray:
    X = np.asarray(values, dtype=np.float64)
    return X[:, None] if X.ndim == 1 else X


def _chain_of(bp: np.ndarray, t: int) -> tuple[int, ...]:
    out = []
    while t > 0:
        tau = int(bp[t])
        if tau <= 0:
            break
        out.append(tau)
        t = tau
    out.reverse()
    return tuple(out)


def _select(cand: np.ndarray, vals: np.ndarray, bp: np.ndarray):
    """Pick the minimizing predecessor; on exact float ties prefer fewer
    changepoints, then the lexicographically earliest changepoint set."""
    j = int(vals.argmin())
    v = vals[j]
    if np.count_nonzero(vals == v) == 1:
        return int(cand[j]), float(v)
    best_tau = -1
    best_key = None
    for idx in np.flatnonzero(vals == v):
        tau = int(cand[idx])
        chain = _chain_of(bp, tau) + (tau,) if tau > 0 else ()
        key = (len(chain), chain)
        if best_key is None or key < best_key:
            best_key, best_tau = key, tau
    return best_tau, float(v)


def _setup(values, model: CostModel, penalty: PenaltyConfig | None, min_size: int):
    """Validated inputs of a detector run: (n, beta, costs)."""
    X = _as_matrix(values)
    n = X.shape[0]
    if min_size < model.min_len:
        raise SegmentTooShort(
            f"min_size={min_size} below the {model.kind} minimum of {model.min_len}"
        )
    if n < 2 * min_size:
        raise SeriesTooShort(f"need n >= {2 * min_size}, have {n}")
    if not np.isfinite(X).all():
        raise NonFiniteValues("series contains non-finite values")
    costs = SegmentCosts(X, model)
    if not np.isfinite(costs.prefix[:, -1]).all():
        raise NonFiniteValues("series too large: its sum of squares overflows")
    if penalty is None:
        penalty = default_penalty_multi(X)
    return n, penalty.beta, costs


class _Buffers:
    def __init__(self, n: int):
        self.lenf = np.empty(n + 1)
        self.w1 = np.empty(n + 1)
        self.w2 = np.empty(n + 1)
        self.vals = np.empty(n + 1)

    def candidate_values(self, costs: SegmentCosts, starts: np.ndarray,
                         heads: np.ndarray, f_heads: np.ndarray, t: int,
                         beta: float) -> np.ndarray:
        """F[tau] + C(tau, t) + beta for every tau in ``starts`` (a view);
        ``f_heads`` and ``heads`` hold F and the prefix sums at ``starts``."""
        m = starts.size
        vals = self.vals[:m]
        costs.accumulate(starts, t, heads, vals,
                         self.lenf[:m], self.w1[:m], self.w2[:m])
        np.add(f_heads, vals, out=vals)
        np.add(vals, beta, out=vals)
        return vals


def op_detect(values, model: CostModel | None = None,
              penalty: PenaltyConfig | None = None, min_size: int = 2,
              with_state: bool = False):
    """Exact minimizer by full dynamic programming over all predecessors.

    Quadratic in n; intended for n up to a few thousand. This is the
    correctness oracle for :func:`pelt_detect`: identical objective,
    identical tie-breaking, no pruning. Its candidates at step t are
    ``0..t-min_size``, so the per-candidate F values and prefix sums are
    plain slices of ``F`` and ``SegmentCosts.prefix``.
    """
    model = model or CostModel()
    n, beta, costs = _setup(values, model, penalty, min_size)
    bufs = _Buffers(n)
    every = np.arange(n + 1, dtype=np.float64)

    F = np.full(n + 1, np.inf)
    F[0] = -beta
    bp = np.full(n + 1, -1, dtype=np.int64)
    for t in range(min_size, n + 1):
        m = t - min_size + 1
        starts = every[:m]
        vals = bufs.candidate_values(costs, starts, costs.prefix[:, :m], F[:m], t, beta)
        tau, v = _select(starts, vals, bp)
        F[t] = v
        bp[t] = tau

    cps = _chain_of(bp, n)
    seg = Segmentation(cps, n, float(F[n]), beta, model.kind)
    if with_state:
        return seg, bp
    return seg


def pelt_detect(values, model: CostModel | None = None,
                penalty: PenaltyConfig | None = None, min_size: int = 2,
                with_state: bool = False):
    """Exact minimizer with candidate pruning (PELT, K = 0).

    Returns the same segmentation as :func:`op_detect` on every input.
    A candidate ``tau`` is discarded once ``F[tau] + C(tau, t) > F[t]``:
    for subadditive costs routing through t is then at least as cheap for
    every later prefix. Two implementation details keep this exact:

    * removal takes effect ``min_size`` steps after the test fires, since
      t itself only becomes an admissible predecessor at ``t + min_size``;
    * the test carries a tiny relative guard so float rounding in the
      subadditivity inequality can never evict a near-tied candidate.

    Each live candidate is one column of ``cand``: its position (as a
    float), ``F[tau]`` and ``prefix[:, tau]``, copied once on admission
    and compacted together with ``remove_at`` when pruning fires. A step
    then only subtracts them from the prefix sums at t: it gathers
    nothing, and builds the pruning mask only when some candidate fails
    the test.
    """
    model = model or CostModel()
    n, beta, costs = _setup(values, model, penalty, min_size)
    bufs = _Buffers(n)

    F = np.full(n + 1, np.inf)
    F[0] = -beta
    bp = np.full(n + 1, -1, dtype=np.int64)

    never = np.iinfo(np.int64).max
    cand = np.empty((2 + 2 * costs.k, n + 1))  # rows: tau, F[tau], prefix[:, tau]
    remove_at = np.empty(n + 1, dtype=np.int64)
    size = 0
    next_removal = never
    pruned: list[tuple[int, int]] = []

    for t in range(min_size, n + 1):
        new = t - min_size                    # newly admissible predecessor
        cand[0, size] = new
        cand[1, size] = F[new]
        cand[2:, size] = costs.prefix[:, new]
        remove_at[size] = never
        size += 1

        if next_removal <= t:
            live = remove_at[:size] > t
            if with_state:
                pruned.extend((int(tau), t) for tau in cand[0, :size][~live])
            keep = int(np.count_nonzero(live))
            cand[:, :keep] = cand[:, :size][:, live]
            remove_at[:keep] = remove_at[:size][live]
            size = keep
            next_removal = int(remove_at[:size].min()) if size else never

        active = cand[0, :size]
        vals = bufs.candidate_values(costs, active, cand[2:, :size],
                                     cand[1, :size], t, beta)
        tau, v = _select(active, vals, bp)
        F[t] = v
        bp[t] = tau

        # K = 0 pruning test with a relative float guard; effective after
        # min_size further steps (t is not admissible before then).
        threshold = v + beta + 1e-12 * (1.0 + abs(v))
        if vals.max() > threshold:
            slot = remove_at[:size]
            np.minimum(slot, t + min_size, out=slot, where=vals > threshold)
            next_removal = min(next_removal, t + min_size)

    cps = _chain_of(bp, n)
    seg = Segmentation(cps, n, float(F[n]), beta, model.kind)
    if with_state:
        return seg, PeltState(F, bp, cand[0, :size].astype(np.int64), pruned)
    return seg


def default_penalty(values) -> PenaltyConfig:
    """BIC-style penalty ``beta = 2 * sigma2 * ln(n)``.

    ``sigma2`` is the first-difference variance estimate
    ``mean((y[t+1] - y[t])^2) / 2``, which tracks the noise level while
    staying robust to level shifts. Floored at 1e-12 so an exactly
    constant series (sigma2 = 0) still carries a positive penalty.
    """
    y = np.asarray(values, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("default_penalty expects a 1-D series")
    if y.size < 3:
        raise SeriesTooShort("need n >= 3 to estimate a penalty")
    sigma2 = float(np.mean(np.diff(y) ** 2) / 2.0)
    if not math.isfinite(sigma2):
        raise NonFiniteValues("cannot derive a penalty: first differences are not finite")
    return PenaltyConfig(max(2.0 * sigma2 * math.log(y.size), 1e-12))


def default_penalty_multi(values) -> PenaltyConfig:
    """Sum of per-column default penalties (for the summed multi-column cost)."""
    X = _as_matrix(values)
    if X.shape[0] < 3:
        raise SeriesTooShort("need n >= 3 to estimate a penalty")
    beta = sum(default_penalty(X[:, j]).beta for j in range(X.shape[1]))
    return PenaltyConfig(beta)


def multivariate_detect(frame: TimeSeriesFrame, columns,
                        model: CostModel | None = None,
                        penalty: PenaltyConfig | None = None,
                        min_size: int = 2) -> Segmentation:
    """Joint detection over several (caller-standardized) frame columns.

    The segment cost is the sum of per-column costs over shared
    boundaries, so one segmentation is returned for the whole set. Only
    the listed columns are ever read.
    """
    names = list(columns)
    if not names:
        raise UnknownColumn("multivariate_detect needs at least one column")
    X = np.column_stack([frame.column(name) for name in names])
    return pelt_detect(X, model=model, penalty=penalty, min_size=min_size)


def per_column_detect(frame: TimeSeriesFrame, columns,
                      model: CostModel | None = None,
                      min_size: int = 2) -> tuple[dict[str, Segmentation], list[int]]:
    """Detect each column independently and union the changepoints.

    Each column gets its own default penalty. Returns the per-column
    segmentations plus the sorted union of all detected indices.
    """
    per: dict[str, Segmentation] = {}
    union: set[int] = set()
    for name in columns:
        seg = pelt_detect(frame.column(name), model=model, min_size=min_size)
        per[name] = seg
        union.update(seg.changepoints)
    return per, sorted(union)


def last_changepoint(seg: Segmentation) -> int | None:
    """The most recent changepoint, or None when no drift was detected."""
    return seg.changepoints[-1] if seg.changepoints else None
