import hashlib
import itertools
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from driftcast import pipeline, synth
from driftcast.changepoint import (
    GAUSSIAN_NLL,
    L2_MEAN,
    SegmentCosts,
    Segmentation,
    default_penalty,
    multivariate_detect,
    op_detect,
    pelt_detect,
)
from driftcast.errors import DriftcastError, NumericError
from driftcast.frame import HOUR
from driftcast.serialize import record

L2 = L2_MEAN
NLL = GAUSSIAN_NLL


def step_series(n_left, n_right, lo=0.0, hi=10.0):
    return np.concatenate([np.full(n_left, lo), np.full(n_right, hi)])


def random_step_series(rng, n_max=200):
    n = int(rng.integers(8, n_max + 1))
    nseg = int(rng.integers(1, 5))
    cuts = np.sort(rng.choice(np.arange(1, n), size=nseg - 1, replace=False)) if nseg > 1 else []
    y = np.empty(n)
    bounds = [0] + list(cuts) + [n]
    for i in range(nseg):
        y[bounds[i]:bounds[i + 1]] = rng.normal(0, 3)
    return y + rng.normal(0, rng.uniform(0.05, 1.5), n)


def cost_of(costs, start, stop):
    """Cost of rows [start, stop), through the detectors' kernel."""
    return float(costs.accumulate(np.array([float(start)]), stop, costs.prefix[:, [start]])[0])


def counting_candidates(detect, *args, **kwargs):
    """``detect(*args, **kwargs)`` and the number of candidates it
    evaluated through :meth:`SegmentCosts.accumulate`."""
    accumulate = SegmentCosts.accumulate
    evaluated = []

    def counted(self, starts, stop, heads):
        evaluated.append(starts.size)
        return accumulate(self, starts, stop, heads)

    with mock.patch.object(SegmentCosts, "accumulate", counted):
        result = detect(*args, **kwargs)
    return result, evaluated


def assert_pelt_equals_op(X, cost, beta, min_size=2):
    """The two detectors agree bit for bit: changepoints, total cost, F
    and backpointers."""
    seg, F, bp = pelt_detect(X, cost, beta, min_size, with_state=True)
    oracle, oracle_F, oracle_bp = op_detect(X, cost, beta, min_size, with_state=True)
    assert seg.changepoints == oracle.changepoints
    assert seg.total_cost.hex() == oracle.total_cost.hex()
    assert F.tobytes() == oracle_F.tobytes()
    assert bp.tobytes() == oracle_bp.tobytes()


def exhaustive_min(values, cost, beta, min_size=2):
    """Independent oracle: enumerate every admissible changepoint set."""
    n = len(values)
    costs = SegmentCosts(values, cost)
    best = None
    positions = range(min_size, n - min_size + 1)
    for m in range(0, n // min_size):
        found = False
        for cps in itertools.combinations(positions, m):
            bounds = (0,) + cps + (n,)
            if any(b - a < min_size for a, b in zip(bounds, bounds[1:])):
                continue
            found = True
            total = sum(cost_of(costs, a, b) for a, b in zip(bounds, bounds[1:]))
            key = (total + beta * m, m, cps)
            if best is None or key < best:
                best = key
        if not found and m > 0:
            break
    return best  # (objective, m, changepoints)


class TestSegmentCost:
    def test_constant_segment_is_free(self):
        assert cost_of(SegmentCosts([5.0, 5.0, 5.0]), 0, 3) == 0.0

    def test_one_two_three(self):
        assert abs(cost_of(SegmentCosts([1.0, 2.0, 3.0]), 0, 3) - 2.0) < 1e-12

    def test_prefix_sums_match_naive(self):
        rng = np.random.default_rng(0)
        y = rng.normal(1.5, 2.0, 400)
        costs = SegmentCosts(y, L2)
        for _ in range(1000):
            t1 = int(rng.integers(0, 399))
            t2 = int(rng.integers(t1, 400))
            seg = y[t1:t2 + 1]
            naive = float(np.sum((seg - seg.mean()) ** 2))
            got = cost_of(costs, t1, t2 + 1)
            assert abs(got - naive) <= 1e-9 * max(1.0, abs(naive))

    def test_gaussian_nll_formula(self):
        rng = np.random.default_rng(1)
        y = rng.normal(0, 2, 50)
        costs = SegmentCosts(y, NLL)
        for (t1, t2) in [(0, 49), (3, 17), (10, 11)]:
            seg = y[t1:t2 + 1]
            var = float(np.mean((seg - seg.mean()) ** 2))
            expect = 0.5 * (t2 - t1 + 1) * math.log(max(var, 1e-8))
            assert abs(cost_of(costs, t1, t2 + 1) - expect) < 1e-9


class TestPelt:
    def test_constant_series_no_changepoints(self):
        seg = pelt_detect(np.full(100, 3.0), L2, 0.5)
        assert seg.changepoints == ()
        assert seg.total_cost == 0.0

    def test_noiseless_step(self):
        seg = pelt_detect(step_series(50, 50), L2, 5.0)
        assert seg.changepoints == (50,)
        # unsplit cost 50*25 + 50*25 = 2500 >> 0 + beta
        assert abs(seg.total_cost - 5.0) < 1e-12

    def test_series_too_short(self):
        with pytest.raises(DriftcastError, match="need n >= 4, have 3"):
            pelt_detect(np.array([1.0, 2.0, 3.0]), min_size=2)

    def test_min_size_below_the_cost_minimum(self):
        for detect in (pelt_detect, op_detect):
            # a variance needs 2 points
            with pytest.raises(DriftcastError, match="min_size=1 below the gaussian_nll minimum of 2"):
                detect(np.arange(10.0), NLL, 1.0, min_size=1)

    def test_agrees_with_op_on_random_series(self):
        rng = np.random.default_rng(7)
        for trial in range(120):
            y = random_step_series(rng)
            cost = L2 if trial % 2 == 0 else NLL
            beta = float(rng.uniform(0.1, 30.0))
            assert_pelt_equals_op(y, cost, beta)

    def test_agrees_with_op_on_tie_heavy_series(self):
        y = np.array([0.0] * 30 + [4.0] * 30 + [0.0] * 30)
        for beta in (0.5, 2.0, 10.0, 1e4):
            assert_pelt_equals_op(y, L2, beta)

    def test_min_size_respected(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            y = rng.normal(0, 1, 60)
            y[30:] += 5.0
            for min_size in (2, 3, 7):
                seg = pelt_detect(y, L2, 2.0, min_size=min_size)
                bounds = (0,) + seg.changepoints + (60,)
                assert min(b - a for a, b in zip(bounds, bounds[1:])) >= min_size

    def test_pruning_safety_instrumented(self):
        # pelt_detect never evaluates a dropped candidate again, so its F and
        # backpointers equal the oracle's only if no candidate that either
        # pruning rule dropped is the oracle's optimal predecessor of a
        # later prefix; and the rules must drop some.
        rng = np.random.default_rng(9)
        series = [(random_step_series(rng, n_max=150), float(rng.uniform(0.5, 10.0)))
                  for _ in range(25)]
        # no changepoint pays on a quiet series at beta 1, so PELT's rule
        # never fires there (F[tau] + C(tau, t) <= F[t]): every drop is an
        # interval drop
        quiet = rng.normal(3.0, 0.15, 600)
        series.append((quiet, 1.0))
        for y, beta in series:
            (_, F, bp), pelt_work = counting_candidates(pelt_detect, y, L2, beta, with_state=True)
            (_, oracle_F, oracle_bp), op_work = counting_candidates(
                op_detect, y, L2, beta, with_state=True)
            assert F.tobytes() == oracle_F.tobytes()
            assert bp.tobytes() == oracle_bp.tobytes()
            assert sum(pelt_work) < sum(op_work)
        # on the quiet series the intervals alone evaluated 30,614 candidates
        # against the oracle's 179,700
        assert not np.any(bp > 0)
        assert 5 * sum(pelt_work) <= sum(op_work)

    def test_interval_pruning_cuts_the_work(self):
        # an event-free synth series at beta 1, as `detect` runs it: PELT
        # alone evaluated 31,988,004 candidates here, nearly all n^2 / 2
        config = synth.SynthConfig(end=synth.SynthConfig().start + 7999 * HOUR, events=())
        y = synth.generate(config).column(synth.TARGET_COLUMN)
        seg, evaluated = counting_candidates(pelt_detect, y, L2, 1.0)
        assert seg.changepoints == ()
        assert len(evaluated) == 7999
        assert sum(evaluated) <= 31_988_004 // 10

    def test_penalty_monotonicity(self):
        rng = np.random.default_rng(10)
        y = random_step_series(rng, n_max=180)
        counts = [pelt_detect(y, L2, b).m
                  for b in (0.01, 0.1, 1.0, 5.0, 25.0, 125.0)]
        assert counts == sorted(counts, reverse=True)


@st.composite
def tie_prone_series(draw):
    """1-3 columns built from constant runs of small integers or floats,
    so exact cost ties and zero-cost segments are common."""
    k = draw(st.integers(1, 3))
    value = st.one_of(st.integers(-2, 2).map(float),
                      st.floats(-10, 10, allow_nan=False, width=32))
    runs = draw(st.lists(st.tuples(st.integers(1, 8), st.lists(value, min_size=k, max_size=k)),
                         min_size=1, max_size=8))
    X = np.array([row for length, row in runs for _ in range(length)])
    return X[:, 0] if k == 1 and draw(st.booleans()) else X


@st.composite
def noisy_step_series(draw):
    """Up to 300 rows: 1-5 levels plus Gaussian noise, from a drawn seed.
    Unlike :func:`random_step_series`, the noise can be small next to the
    rounding of prefix sums taken far from zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(10, 300))
    levels = rng.normal(0.0, draw(st.sampled_from([0.1, 1.0, 3.0])), draw(st.integers(1, 5)))
    cuts = np.sort(rng.integers(0, n, levels.size - 1))
    y = np.repeat(levels, np.diff(np.concatenate([[0], cuts, [n]])))
    return y + rng.normal(0.0, draw(st.sampled_from([0.01, 0.15, 1.0])), n)


class TestPeltExactness:
    @settings(max_examples=200, deadline=None)
    @given(X=tie_prone_series(), min_size=st.integers(2, 5),
           cost=st.sampled_from([L2, NLL]),
           beta=st.sampled_from([0.0, 0.25, 1.0, 4.0, 20.0]))
    def test_pelt_equals_op(self, X, min_size, cost, beta):
        assume(len(X) >= 2 * min_size)
        assert_pelt_equals_op(X, cost, beta, min_size)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(y=noisy_step_series(), offset=st.sampled_from([0.0, 1e3, 1e6]),
           min_size=st.integers(2, 5), beta=st.sampled_from([0.05, 0.5, 1.0, 5.0, 30.0]))
    def test_pelt_equals_op_on_offset_series(self, y, offset, min_size, beta):
        # far from zero the kernel's rounding grows with the prefix sums,
        # not with the segment costs; neither pruning rule may act on it
        y = y + offset
        assert_pelt_equals_op(y, L2, beta, min_size)

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    def test_pelt_equals_op_far_from_zero(self, offset):
        rng = np.random.default_rng(0)
        y = offset + rng.normal(0.0, 0.15, 1500)
        y[750:] += 0.3
        for beta in (0.05, 0.5, 5.0):
            assert_pelt_equals_op(y, L2, beta)

    @pytest.mark.parametrize("beta,min_size", [
        # beta near the float maximum overflows the interval products
        *((beta, 2) for beta in (1e307, 1e308, 1.7e308)),
        # candidates with F = +inf are still live at the first interval update
        *((1.0, min_size) for min_size in range(11, 21)),
    ])
    def test_pelt_equals_op_on_infinite_interval_terms(self, beta, min_size):
        rng = np.random.default_rng(0)
        y = np.r_[np.zeros(60), np.ones(60)] + rng.normal(0.0, 0.1, 120)
        assert_pelt_equals_op(y, L2, beta, min_size)

    @settings(max_examples=150, deadline=None)
    @given(min_size=st.integers(1, 3), data=st.data())
    def test_tie_rule_matches_enumeration(self, min_size, data):
        # runs of integers at beta 0: every segmentation cutting at least at
        # the value changes costs exactly 0, so the tie rule alone decides
        runs = data.draw(st.lists(st.tuples(st.integers(min_size, 4), st.integers(0, 2)),
                                  min_size=1, max_size=4))
        y = np.array([float(v) for length, v in runs for _ in range(length)])
        assume(2 * min_size <= len(y) <= 12)
        _, m, cps = exhaustive_min(y, L2, 0.0, min_size)
        for detect in (pelt_detect, op_detect):
            seg = detect(y, L2, 0.0, min_size)
            assert (seg.m, seg.changepoints) == (m, cps)

    @pytest.mark.parametrize("y,beta,expect", [
        # (4,) and (1, 3) both total 1.5: fewer changepoints win
        ([1.0, 0.0, 0.0, 1.0, 2.0], 0.5, (4,)),
        # (2, 3) and (2, 4) both total 2.5: the earliest set wins
        ([0.0, 0.0, 2.0, 1.0, 0.0], 1.0, (2, 3)),
    ])
    def test_exact_tie_cases(self, y, beta, expect):
        for detect in (pelt_detect, op_detect):
            assert detect(np.array(y), L2, beta, 1).changepoints == expect

    # sha256 of pelt_detect's F and backpointers for l2_mean on what retrain's
    # detection sees on the default synth (seed 1): the target by default, or
    # the three lag columns when named; recorded before the per-candidate
    # kernel replaced per-step gathers
    GOLDEN = {
        None: ("ceb109642a33b779a82f3ae6d55ecefdfb686d14ea19b044f174b63f48a1c6dc",
               "6c00cf010d7b73489fa36a06a87b7ac3cafc60b8d2038f010c2402a49b9dd288"),
        ("lag_1", "lag_24", "lag_168"): (
            "1a147eb09a3167ef699b7f3b7c6486916154a55f19db0aaed1f0f75706e2fb0f",
            "106b99ba2dddd9e96b5852687bd76c6ab9f6db8ffcd538dd530fb25004c3cb03"),
    }

    @pytest.mark.parametrize("columns", list(GOLDEN), ids=["target", "lags"])
    def test_golden_state_on_default_synth(self, columns):
        config = pipeline.StrategyConfig(
            detection=pipeline.DetectionConfig(columns=columns))
        frame = synth.generate(synth.SynthConfig(seed=1))
        prep = pipeline._prepare(frame, synth.TARGET_COLUMN, config)
        with mock.patch.object(pipeline.cp, "pelt_detect",
                               return_value=Segmentation((), 1, 0.0)) as fake:
            pipeline.detect_training_drift(prep, config)
        values, cost, beta = fake.call_args.args
        assert np.shape(values) == ((27883,) if columns is None else (27883, 3))
        _, F, bp = pelt_detect(values, cost, beta, with_state=True)
        digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()
        assert (digest(F), digest(bp)) == self.GOLDEN[columns]


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_detectors_reject_non_finite(self, bad):
        y = np.linspace(0.0, 1.0, 20)
        y[7] = bad
        for detect in (pelt_detect, op_detect):
            with pytest.raises(NumericError, match="series contains non-finite values"):
                detect(y, L2, 1.0)
        with pytest.raises(NumericError, match="first differences are not finite"):
            default_penalty(y)

    def test_overflowing_sum_of_squares(self):
        y = np.tile([1e200, -1e200], 10)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="sum of squares overflows"):
                pelt_detect(y, L2, 1.0)

    @pytest.mark.parametrize("cost", [L2, NLL])
    @pytest.mark.parametrize("detect", [pelt_detect, op_detect])
    def test_overflowing_segment_costs(self, detect, cost):
        # the sum of squares is finite, about 1.5e306, but n times it is
        # not, and a squared segment sum can reach n times it
        y = 5e151 + np.random.default_rng(0).normal(0, 1e150, 600)
        with pytest.raises(NumericError, match="sum of squares overflows"):
            detect(y, cost)

    @pytest.mark.parametrize("cost", [L2, NLL])
    def test_segment_costs_just_below_the_overflow_limit(self, cost):
        y = 5 + np.random.default_rng(0).normal(0, 1, 300)
        y[150:] *= 1.5
        y *= math.sqrt(0.9 * sys.float_info.max / (y.size * float(y @ y)))
        assert pelt_detect(y, cost) == op_detect(y, cost)

    @pytest.mark.parametrize("beta", [-1.0, np.nan, np.inf])
    def test_penalty_must_be_finite_and_non_negative(self, beta):
        for detect in (pelt_detect, op_detect):
            with pytest.raises(DriftcastError, match="beta must be a finite number >= 0"):
                detect(np.linspace(0.0, 1.0, 20), L2, beta)

    def test_unknown_cost_rejected(self):
        for detect in (pelt_detect, op_detect, multivariate_detect):
            with pytest.raises(DriftcastError, match="unknown cost model 'bogus'"):
                detect(np.linspace(0.0, 1.0, 20), "bogus")
        # reported before a short or non-finite series, a low min_size, a bad
        # beta or a matrix with no columns
        for values, beta, min_size in [([1.0, 2.0], None, 2), ([1.0, np.nan, 3.0, 4.0], None, 2),
                                       (np.ones(20), None, 0), (np.ones(20), -1.0, 2)]:
            for detect in (pelt_detect, op_detect, multivariate_detect):
                with pytest.raises(DriftcastError, match="unknown cost model 'bogus'"):
                    detect(values, "bogus", beta, min_size)
        with pytest.raises(DriftcastError, match="unknown cost model 'bogus'"):
            multivariate_detect(np.empty((40, 0)), "bogus")
        with pytest.raises(DriftcastError, match="unknown cost model 'bogus'"):
            SegmentCosts([1.0, 2.0, 3.0, 10.0], "bogus")


class TestOpDetect:
    def test_constant(self):
        assert op_detect(np.ones(40), L2, 1.0).changepoints == ()

    def test_noiseless_step_small_n(self):
        for k in (5, 9, 14):
            y = step_series(k, 20 - k)
            seg = op_detect(y, L2, 1.0)
            assert seg.changepoints == (k,)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(6, 13))
            y = rng.normal(0, 1, n)
            if rng.random() < 0.5:
                y[n // 2:] += rng.uniform(2, 6)
            beta = float(rng.uniform(0.2, 8.0))
            seg = op_detect(y, L2, beta)
            objective, m, cps = exhaustive_min(y, L2, beta)
            assert seg.changepoints == cps
            assert abs(seg.total_cost - objective) < 1e-9


class TestDefaultPenalty:
    def test_constant_series_floor(self):
        beta = default_penalty(np.full(50, 2.0))
        assert beta == 1e-12
        assert pelt_detect(np.full(50, 2.0), L2, beta).changepoints == ()

    def test_white_noise_monte_carlo(self):
        expect = 2.0 * math.log(1000)
        betas = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            betas.append(default_penalty(rng.normal(0, 1, 1000)))
        mean_beta = float(np.mean(betas))
        assert abs(mean_beta - expect) / expect < 0.2

    def test_step_series_arithmetic(self):
        beta = default_penalty(step_series(50, 50))
        expect = 2.0 * (100.0 / 2.0 / 99.0) * math.log(100)
        assert abs(beta - expect) < 1e-12

    def test_too_short(self):
        with pytest.raises(DriftcastError, match="need n >= 3 to estimate a penalty"):
            default_penalty(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("values", [5.0, np.zeros((4, 2, 2))])
    def test_takes_a_series_or_a_matrix_only(self, values):
        for use in (default_penalty, pelt_detect):
            with pytest.raises(ValueError, match="1-D or 2-D"):
                use(values)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matrix_sums_its_columns(self, data):
        n = data.draw(st.integers(3, 40), label="n")
        k = data.draw(st.integers(1, 5), label="k")
        values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        X = np.array(data.draw(st.lists(st.lists(values, min_size=k, max_size=k),
                                        min_size=n, max_size=n)), dtype=np.float64)
        flat = data.draw(st.integers(0, k - 1), label="constant column")
        X[:, flat] = X[0, flat]
        expect = 0
        for j in range(k):  # left to right, as the summed cost adds columns
            expect += default_penalty(X[:, j])
        assert default_penalty(X[:, flat]) == 1e-12
        assert default_penalty(X) == expect
        y = X[:, 0].copy()
        assert default_penalty(y) == default_penalty(y[:, None])


def standardized(X):
    return (X - X.mean(axis=0)) / X.std(axis=0)


class TestMultivariate:
    def test_single_column_identical(self):
        rng = np.random.default_rng(12)
        y = random_step_series(rng, n_max=150)
        assert multivariate_detect(y[:, None], L2, 3.0).changepoints == \
            pelt_detect(standardized(y), L2, 3.0).changepoints

    def test_two_identical_columns_halve_penalty(self):
        rng = np.random.default_rng(13)
        y = random_step_series(rng, n_max=150)
        joint = multivariate_detect(np.column_stack([y, y]), L2, 6.0)
        single = op_detect(standardized(y), L2, 3.0)
        assert joint.changepoints == single.changepoints

    def test_step_in_one_column_only(self):
        rng = np.random.default_rng(14)
        flat = rng.normal(0, 0.5, 120)
        stepped = rng.normal(0, 0.5, 120)
        stepped[70:] += 8.0
        X = np.column_stack([stepped, flat])
        joint = multivariate_detect(X, L2, 4.0)
        oracle = op_detect(standardized(X), L2, 4.0)
        assert joint.changepoints == oracle.changepoints
        assert any(abs(c - 70) <= 1 for c in joint.changepoints)

    def test_no_columns_rejected(self):
        with pytest.raises(DriftcastError, match="detection needs at least one column"):
            multivariate_detect(np.empty((40, 0)))


class TestSerialization:
    def test_record(self):
        seg = Segmentation((5, 9), 20, 1.25, beta=0.5, cost_model="l2_mean")
        d = record(seg)
        assert json.dumps(d) == ('{"changepoints": [5, 9], "n": 20, "total_cost": 1.25, '
                            '"beta": 0.5, "cost_model": "l2_mean"}')
        assert Segmentation.from_dict(d) == seg

    @pytest.mark.parametrize("detect", [pelt_detect, op_detect])
    @pytest.mark.parametrize("beta", [True, 0, np.float32(0.1)])
    def test_beta_is_a_float(self, detect, beta):
        y = np.array([0, 0, 0, 5, 5, 5.0])
        seg = detect(y, beta=beta)
        assert type(seg.beta) is float and seg.beta == float(beta)
        assert type(detect(y).beta) is float  # the default penalty
        assert json.dumps(record(seg)) == json.dumps(record(detect(y, beta=float(beta))))

    @pytest.mark.parametrize("changepoints,cost_model", [
        ([-5], "l2_mean"), ([0], "l2_mean"), ([20], "l2_mean"), ([40000], "l2_mean"),
        ([9, 5], "l2_mean"), ([5, 5], "l2_mean"), ([5], "bogus"), ([5], ["l2_mean"]),
    ])
    def test_from_dict_rejects_impossible(self, changepoints, cost_model):
        d = {"n": 20, "changepoints": changepoints, "total_cost": 1.0,
             "beta": 0.5, "cost_model": cost_model}
        with pytest.raises(DriftcastError, match="seg.json is not a segmentation"):
            Segmentation.from_dict(d, "seg.json")
