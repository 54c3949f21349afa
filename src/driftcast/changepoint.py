"""Changepoint detection by penalized cost minimization.

Two detectors share one objective: the sum of per-segment costs plus a
penalty ``beta`` per changepoint.

* :func:`pelt_detect` — pruned dynamic program, expected linear time on
  series whose changepoints grow with length. On one column under
  ``l2_mean`` it also prunes by intervals of segment means, which keeps
  the candidate lists short on series with no changepoint at all.
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
# ``(len/2) * ln(max(var, VARIANCE_FLOOR))``. ``l2_mean`` is subadditive —
# splitting a segment never increases total fit cost — which is what makes
# pruning with K = 0 exact. ``gaussian_nll`` is too, except where a
# segment's variance falls below the floor: a constant run next to a run
# of variance 2 * VARIANCE_FLOOR costs less joined than split.
# ``MIN_LEN`` maps each cost to its shortest segment.
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

    @staticmethod
    def from_dict(d: dict, source: str = "segmentation") -> "Segmentation":
        """Inverse of :func:`serialize.record`; anything else, including
        changepoints that do not strictly increase inside ``(0, n)`` or an
        unknown cost, raises :class:`DriftcastError` naming ``source``."""
        try:
            seg = Segmentation(
                tuple(int(t) for t in d["changepoints"]), int(d["n"]),
                float(d["total_cost"]), float(d["beta"]), d["cost_model"])
            bounds = (0, *seg.changepoints, seg.n)
            if seg.cost_model in MIN_LEN and all(a < b for a, b in zip(bounds, bounds[1:])):
                return seg
        except (KeyError, TypeError, ValueError):
            pass
        raise DriftcastError(f"{source} is not a segmentation")


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
    with np.errstate(over="ignore"):  # reported as NumericError below
        costs = SegmentCosts(X, cost)
    # a segment's squared sum is at most its length times its sum of
    # squares (Cauchy-Schwarz), so the products the kernels form stay
    # finite when n times each column's sum of squares does
    if not all(math.isfinite(n * s) for s in costs.prefix[costs.k:, -1].tolist()):
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

    ``with_state=True`` returns ``(seg, F, bp)``: ``F[t]`` is the optimal
    objective over the first t rows, with ``F[0] = -beta`` so the first
    segment pays exactly one penalty, and ``bp[t]`` is the start of the
    last segment of that optimum (-1 where none is admissible).
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
        return seg, F, bp
    return seg


def _rounding_bound(costs: SegmentCosts, beta: float) -> float:
    """Run-constant bound ``delta`` on the rounding error of one candidate's
    value ``F[tau] + C(tau, t) + beta`` as the kernel computes it.

    Kernel error grows with the prefix sums the kernel subtracts, not
    with the value it returns, so the bound comes from the run's largest
    magnitudes: under ``l2_mean`` every segment cost, every F value and
    the sum of squares of any stretch of rows lie below the total sum of
    squares ``sum(prefix[k:, n])``; under ``gaussian_nll`` a row adds at
    most ``max(ln(1 / VARIANCE_FLOOR), ln(1 + sum of squares)) / 2`` per
    column in absolute value. A few dozen roundings of such magnitudes
    enter any one comparison; 64 covers them with room to spare. The
    ``gaussian_nll`` bound does not cover the cancellation in the
    variance ``S2/L - (S1/L)^2`` of a series far from zero, which the
    logarithm turns into errors of any size.
    """
    squares = costs.prefix[costs.k:, -1]
    if costs.cost == L2_MEAN:
        scale = float(squares.sum())
    else:
        scale = costs.n / 2 * sum(max(-math.log(VARIANCE_FLOOR), math.log1p(s))
                                  for s in squares)
    return 64 * np.finfo(float).eps * (scale + beta)


# Interval pruning: newest candidates per interval update, pairs per block
# of an update (256 KB of floats per temporary) and the most steps between
# updates.
_INTERVAL_BATCH = 32
_INTERVAL_BLOCK_CELLS = 1 << 15
_INTERVAL_MAX_GAP = 32 * _INTERVAL_BATCH


def _narrow_intervals(live: np.ndarray, newest: tuple[np.ndarray, ...],
                      delta: float) -> np.ndarray:
    """Intersect each live candidate's interval with the newest candidates'.

    ``live`` holds the rows (tau, F[tau], S1[tau], S2[tau], lo, hi) of
    the live candidates in ascending tau, ``newest`` the rows (tau',
    F[tau'], S1[tau'], S2[tau']) of the newest admitted ones, pruned or
    not. For tau < tau', ``Q_tau(mu) - Q_tau'(mu) = F[tau] - F[tau'] +
    sum over [tau, tau') of (y - mu)^2`` whatever the step, and it is at
    most ``delta`` for mu between ``(S1 -+ sqrt(disc)) / L``, with
    ``L = tau' - tau``, S1 and S2 the sums over [tau, tau') and
    ``disc = S1^2 - L (S2 + F[tau] - F[tau'] - delta)``. ``lo`` and
    ``hi`` shrink to that interval in place; pairs with tau >= tau'
    constrain nothing. Returns the mask of candidates whose interval is
    now empty.

    Live candidates go in blocks of ``_INTERVAL_BLOCK_CELLS`` pairs, so
    the temporaries stay small however many candidates survive.
    """
    tau, f, s1, s2, lo, hi = live
    new_tau, new_f, new_s1, new_s2 = newest
    # S2 + F[tau] - F[tau'] - delta, from one term per candidate on each side
    row_c = f - s2
    col_c = new_s2 - new_f - delta
    overlap = int(np.searchsorted(tau, new_tau[0]))  # from here on, live are newest too
    step = max(1, _INTERVAL_BLOCK_CELLS // new_tau.size)
    # The pair arithmetic may overflow or meet inf - inf, and stays exact:
    # _setup keeps d1^2 <= n * sum(S^2) finite, so a product c * L that
    # overflows to +inf means disc < 0, an empty pair interval; one that
    # overflows to -inf only widens the pair interval to the whole line;
    # and a NaN comes only from F[tau] = +inf, a tau in (0, min_size) that
    # no segment can start at, and empties that candidate's interval.
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, tau.size, step):
            # one row per newest candidate, one column per live candidate
            cols = slice(a, a + step)
            length = np.subtract.outer(new_tau, tau[cols])
            d1 = np.subtract.outer(new_s1, s1[cols])
            c = np.add.outer(col_c, row_c[cols])
            if a + step > overlap:
                # no constraint: disc = +inf and the pair's interval is the line
                unordered = length <= 0
                length[unordered] = 1.0
                d1[unordered] = 0.0
                c[unordered] = -np.inf
            c *= length
            disc = np.multiply(d1, d1)
            disc -= c
            # disc < 0 (an empty pair interval) gives a NaN root, which the
            # maximum and minimum below carry into the candidate's bounds
            np.sqrt(disc, out=disc)
            np.subtract(d1, disc, out=c)
            c /= length
            np.maximum(lo[cols], c.max(axis=0), out=lo[cols])
            d1 += disc
            d1 /= length
            np.minimum(hi[cols], d1.min(axis=0), out=hi[cols])
    return ~(lo <= hi)


def pelt_detect(values, cost: str = L2_MEAN, beta: float | None = None,
                min_size: int = 2, with_state: bool = False):
    """Exact minimizer with candidate pruning: PELT (K = 0) and, for one
    column under ``l2_mean``, interval pruning.

    Returns the same segmentation as :func:`op_detect` on every
    ``l2_mean`` input, and on every ``gaussian_nll`` input whose segment
    variances stay above ``VARIANCE_FLOOR`` (see the cost notes above).
    Two rules drop a candidate ``tau`` from the admissible set:

    * **PELT**, every cost and column count: once ``F[tau] + C(tau, t) >
      F[t] + delta``, routing through t is cheaper for every later prefix,
      because splitting a segment never raises its cost. The drop takes
      effect ``min_size`` steps later, when t itself becomes admissible.
    * **Intervals**, one column under ``l2_mean`` only (functional pruning
      after FPOP, restricted to later candidates): each live candidate
      keeps the interval of segment means mu at which it is within
      ``delta`` of every later candidate it was compared with (see
      :func:`_narrow_intervals`). That difference does not depend on t,
      so once the interval is empty some later candidate beats ``tau`` at
      every mu, and so at every later step; the drop takes effect at once.
      Every ``_INTERVAL_BATCH`` admissions the intervals are intersected
      with the newest ``_INTERVAL_BATCH`` candidates'. After an update that
      drops fewer than one live candidate in ``_INTERVAL_BATCH``, the gap
      doubles, up to ``_INTERVAL_MAX_GAP`` steps, so a series where the
      intervals rarely empty (a constant one, or one far from zero) pays
      little for them.

    ``delta`` is :func:`_rounding_bound`, one constant per run that bounds
    the rounding in a candidate's computed value. Each rule drops ``tau``
    only when its value exceeds another candidate's by more than
    ``delta`` in exact arithmetic on the computed prefix sums and F
    values, so ``tau``'s computed value stays strictly above the computed
    minimum at every later step: no minimizer, and no exact tie that the
    tie rule would weigh, is ever dropped. The survivors are evaluated by
    the same kernel and tie rule as :func:`op_detect`, so F and the
    backpointers bp, which ``with_state=True`` returns as ``(seg, F, bp)``,
    come out bit for bit the same.

    Each live candidate is one column of ``cand``: its position (as a
    float), ``F[tau]``, ``prefix[:, tau]`` and, under interval pruning,
    its interval ``lo``, ``hi``; copied once on admission and compacted
    together with ``remove_at`` when a drop takes effect. A step then only
    subtracts them from the prefix sums at t: it gathers nothing, and
    builds the pruning mask only when some candidate fails a test.
    """
    n, beta, costs = _setup(values, cost, beta, min_size)
    delta = _rounding_bound(costs, beta)
    intervals = cost == L2_MEAN and costs.k == 1

    F = np.full(n + 1, np.inf)
    F[0] = -beta
    bp = np.full(n + 1, -1, dtype=np.int64)

    never = np.iinfo(np.int64).max
    heads = slice(2, 2 + 2 * costs.k)
    # rows: tau, F[tau], prefix[:, tau], then lo, hi under interval pruning
    cand = np.empty((2 + 2 * costs.k + 2 * intervals, n + 1))
    remove_at = np.empty(n + 1, dtype=np.int64)
    size = 0
    next_removal = never
    if intervals:
        gap = next_update = _INTERVAL_BATCH

    for t in range(min_size, n + 1):
        new = t - min_size                    # newly admissible predecessor
        cand[0, size] = new
        cand[1, size] = F[new]
        cand[heads, size] = costs.prefix[:, new]
        remove_at[size] = never
        if intervals:
            cand[4:, size] = (-np.inf, np.inf)
        size += 1

        if intervals and t == next_update:
            first = max(0, new + 1 - _INTERVAL_BATCH)
            newest = (np.arange(first, new + 1, dtype=np.float64), F[first:new + 1],
                      *costs.prefix[:, first:new + 1])
            empty = _narrow_intervals(cand[:, :size], newest, delta)
            dropped = int(np.count_nonzero(empty))
            if dropped:
                remove_at[:size][empty] = t
                next_removal = t
            # an update compares each live candidate with _INTERVAL_BATCH
            # others, so it pays when it drops one in _INTERVAL_BATCH
            pays = _INTERVAL_BATCH * dropped >= size
            gap = _INTERVAL_BATCH if pays else min(2 * gap, _INTERVAL_MAX_GAP)
            next_update = t + gap

        if next_removal <= t:
            live = remove_at[:size] > t
            keep = int(np.count_nonzero(live))
            cand[:, :keep] = cand[:, :size][:, live]
            remove_at[:keep] = remove_at[:size][live]
            size = keep
            next_removal = int(remove_at[:size].min()) if size else never

        active = cand[0, :size]
        vals = costs.accumulate(active, t, cand[heads, :size])
        vals += cand[1, :size]
        vals += beta
        tau, v = _select(active, vals, bp)
        F[t] = v
        bp[t] = tau

        # PELT's K = 0 test, effective after min_size further steps (t is
        # not admissible before then)
        threshold = v + beta + delta
        if vals.max() > threshold:
            slot = remove_at[:size]
            np.minimum(slot, t + min_size, out=slot, where=vals > threshold)
            next_removal = min(next_removal, t + min_size)

    cps = _chain_of(bp, n)
    seg = Segmentation(cps, n, float(F[n]), beta, cost)
    if with_state:
        return seg, F, bp
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
    return pelt_detect(Scaler.fit(X).transform(X), cost, beta, min_size=min_size)
