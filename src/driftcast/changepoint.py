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
from dataclasses import dataclass

import numpy as np

from .errors import DriftcastError, NumericError
from .frame import Scaler

# Segment costs, named by string. ``l2_mean``: sum of squared deviations
# from the segment mean (Gaussian fixed-variance likelihood, the default).
# ``gaussian_nll``: Gaussian negative log-likelihood with free mean and
# variance, up to an additive constant, i.e.
# ``(len/2) * ln(max(var, VARIANCE_FLOOR))``. Both are subadditive —
# splitting a segment never increases total fit cost — which is what makes
# pruning with K = 0 exact. ``MIN_LEN`` maps each cost to its shortest
# segment.
L2_MEAN = "l2_mean"
GAUSSIAN_NLL = "gaussian_nll"
MIN_LEN = {L2_MEAN: 1, GAUSSIAN_NLL: 2}
# lower bound on a segment's variance under ``gaussian_nll``, so a constant
# segment costs a finite amount
VARIANCE_FLOOR = 1e-8


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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "changepoints": list(self.changepoints),
            "total_cost": self.total_cost,
            "beta": self.beta,
            "cost_model": self.cost_model,
        }

    @staticmethod
    def from_dict(d: dict, source: str = "segmentation") -> "Segmentation":
        """Inverse of :meth:`to_dict`; anything else, including changepoints
        that do not strictly increase inside ``(0, n)`` or an unknown cost,
        raises :class:`DriftcastError` naming ``source``."""
        try:
            seg = Segmentation(
                tuple(int(t) for t in d["changepoints"]), int(d["n"]),
                float(d["total_cost"]), float(d.get("beta", 0.0)),
                d.get("cost_model", L2_MEAN))
            bounds = (0, *seg.changepoints, seg.n)
            if seg.cost_model in MIN_LEN and all(a < b for a, b in zip(bounds, bounds[1:])):
                return seg
        except (KeyError, TypeError, ValueError):
            pass
        raise DriftcastError(f"{source} is not a segmentation")


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
    pruned: list[tuple[int, int]]


class SegmentCosts:
    """Prefix-sum cost evaluator: O(n k) precompute, O(k) per segment query.

    ``prefix`` is one (2k, n+1) array: row ``c`` holds the running sum of
    column ``c`` and row ``k + c`` the running sum of its squares, each
    starting at 0. :meth:`accumulate` takes the prefix values at the
    segment starts as a (2k, m) block, so the caller decides where they
    come from: a contiguous slice of ``prefix`` when the starts are
    ``0..m-1`` (:func:`op_detect`), or the copy each live candidate keeps
    (:func:`pelt_detect`). Either way the inner loop gathers nothing and
    allocates nothing: the result and the scratch (``lenf``, ``w1``,
    ``w2``) are views of arrays allocated here, one slot per row boundary.
    """

    def __init__(self, values: np.ndarray, cost: str = L2_MEAN):
        _check_cost(cost)
        X = _as_matrix(values)
        self.cost = cost
        self.n = X.shape[0]
        self.k = X.shape[1]
        self.prefix = np.zeros((2 * self.k, self.n + 1))
        for c in range(self.k):
            np.cumsum(X[:, c], out=self.prefix[c, 1:])
            np.cumsum(X[:, c] * X[:, c], out=self.prefix[self.k + c, 1:])
        self.out, self.lenf, self.w1, self.w2 = np.empty((4, self.n + 1))

    def accumulate(self, starts: np.ndarray, stop: int, heads: np.ndarray) -> np.ndarray:
        """Summed cost of segments [starts_i, stop), one per start.

        ``starts`` holds the start rows as floats and ``heads`` holds
        ``prefix[:, starts]``. The result is a view of ``out``, valid until
        the next call. The first column's cost is computed in it directly,
        so ``w2`` is only touched when there are several columns.
        """
        k = self.k
        m = starts.size
        out, lenf, w1, w2 = self.out[:m], self.lenf[:m], self.w1[:m], self.w2[:m]
        tail = self.prefix[:, stop]
        nll = self.cost == GAUSSIAN_NLL
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
                np.maximum(b, VARIANCE_FLOOR, out=b)
                np.log(b, out=b)
                np.multiply(b, lenf, out=b)
                np.multiply(b, 0.5, out=b)
            else:
                np.multiply(w1, w1, out=w1)
                np.divide(w1, lenf, out=w1)
                np.subtract(b, w1, out=b)
            if c:
                np.add(out, w2, out=out)
        return out


def _check_cost(cost: str) -> None:
    if cost not in MIN_LEN:
        raise DriftcastError(f"unknown cost model {cost!r}")


def _as_matrix(values) -> np.ndarray:
    X = np.asarray(values, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DriftcastError("values must be 1-D or 2-D")
    return X


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


def _setup(values, cost: str, beta: float | None, min_size: int):
    """Validated inputs of a detector run: (n, float beta, costs)."""
    _check_cost(cost)
    X = _as_matrix(values)
    n = X.shape[0]
    if min_size < MIN_LEN[cost]:
        raise DriftcastError(
            f"min_size={min_size} below the {cost} minimum of {MIN_LEN[cost]}"
        )
    if n < 2 * min_size:
        raise DriftcastError(f"need n >= {2 * min_size}, have {n}")
    if not np.isfinite(X).all():
        raise NumericError("series contains non-finite values")
    costs = SegmentCosts(X, cost)
    if not np.isfinite(costs.prefix[:, -1]).all():
        raise NumericError("series too large: its sum of squares overflows")
    if beta is None:
        beta = default_penalty(X)
    if not 0 <= beta < math.inf:
        raise DriftcastError(f"beta must be a finite number >= 0, got {beta}")
    return n, float(beta), costs


def op_detect(values, cost: str = L2_MEAN, beta: float | None = None,
              min_size: int = 2, with_state: bool = False):
    """Exact minimizer by full dynamic programming over all predecessors.

    Quadratic in n; intended for n up to a few thousand. This is the
    correctness oracle for :func:`pelt_detect`: identical objective,
    identical tie-breaking, no pruning. Its candidates at step t are
    ``0..t-min_size``, so the per-candidate F values and prefix sums are
    plain slices of ``F`` and ``SegmentCosts.prefix``.
    """
    n, beta, costs = _setup(values, cost, beta, min_size)
    every = np.arange(n + 1, dtype=np.float64)

    F = np.full(n + 1, np.inf)
    F[0] = -beta
    bp = np.full(n + 1, -1, dtype=np.int64)
    for t in range(min_size, n + 1):
        m = t - min_size + 1
        starts = every[:m]
        vals = costs.accumulate(starts, t, costs.prefix[:, :m])
        vals += F[:m]
        vals += beta
        tau, v = _select(starts, vals, bp)
        F[t] = v
        bp[t] = tau

    cps = _chain_of(bp, n)
    seg = Segmentation(cps, n, float(F[n]), beta, cost)
    if with_state:
        return seg, bp
    return seg


def pelt_detect(values, cost: str = L2_MEAN, beta: float | None = None,
                min_size: int = 2, with_state: bool = False):
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
    n, beta, costs = _setup(values, cost, beta, min_size)

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
        vals = costs.accumulate(active, t, cand[2:, :size])
        vals += cand[1, :size]
        vals += beta
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
    seg = Segmentation(cps, n, float(F[n]), beta, cost)
    if with_state:
        return seg, PeltState(F, bp, pruned)
    return seg


def default_penalty(values) -> float:
    """BIC-style penalty ``beta = 2 * sigma2 * ln(n)`` per column, summed.

    ``values`` is a 1-D series or an (n, k) matrix, whose summed
    multi-column cost gets the sum of its columns' penalties, added from
    left to right. ``sigma2`` is the first-difference variance estimate
    ``mean((y[t+1] - y[t])^2) / 2``, which tracks the noise level while
    staying robust to level shifts. Each column's term is floored at 1e-12
    so an exactly constant series (sigma2 = 0) still carries a positive
    penalty.
    """
    X = _as_matrix(values)
    n = X.shape[0]
    if n < 3:
        raise DriftcastError("need n >= 3 to estimate a penalty")
    beta = 0.0
    for j in range(X.shape[1]):
        sigma2 = float(np.mean(np.diff(X[:, j]) ** 2) / 2.0)
        if not math.isfinite(sigma2):
            raise NumericError("cannot derive a penalty: first differences are not finite")
        beta += max(2.0 * sigma2 * math.log(n), 1e-12)
    return beta


def multivariate_detect(values, cost: str = L2_MEAN, beta: float | None = None,
                        min_size: int = 2) -> Segmentation:
    """Joint detection over the columns of an (n, k) matrix, each
    standardized with its own :meth:`Scaler.fit` first.

    The segment cost is the sum of per-column costs over shared
    boundaries, so one segmentation is returned for the whole set.
    ``beta=None`` sums the per-column default penalties of the
    standardized columns.
    """
    _check_cost(cost)
    X = _as_matrix(values)
    if X.shape[1] == 0:
        raise DriftcastError("detection needs at least one column")
    return pelt_detect(Scaler.fit(X).transform(X), cost, beta, min_size)
