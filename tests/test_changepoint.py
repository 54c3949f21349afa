import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from driftcast import pipeline, synth
from driftcast.changepoint import (
    CostModel,
    PenaltyConfig,
    SegmentCosts,
    Segmentation,
    default_penalty,
    last_changepoint,
    multivariate_detect,
    op_detect,
    pelt_detect,
    per_column_detect,
    segment_cost,
)
from driftcast.errors import InvalidConfig, NonFiniteValues, SegmentTooShort, SeriesTooShort
from driftcast.frame import HOUR, TimeSeriesFrame

L2 = CostModel()
NLL = CostModel("gaussian_nll")


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


def exhaustive_min(values, model, beta, min_size=2):
    """Independent oracle: enumerate every admissible changepoint set."""
    n = len(values)
    costs = SegmentCosts(values, model)
    best = None
    positions = range(min_size, n - min_size + 1)
    for m in range(0, n // min_size):
        found = False
        for cps in itertools.combinations(positions, m):
            bounds = (0,) + cps + (n,)
            if any(b - a < min_size for a, b in zip(bounds, bounds[1:])):
                continue
            found = True
            total = sum(costs.cost_open(a, b) for a, b in zip(bounds, bounds[1:]))
            key = (total + beta * m, m, cps)
            if best is None or key < best:
                best = key
        if not found and m > 0:
            break
    return best  # (objective, m, changepoints)


class TestSegmentCost:
    def test_constant_segment_is_free(self):
        assert segment_cost([5.0, 5.0, 5.0], 0, 2) == 0.0

    def test_one_two_three(self):
        assert abs(segment_cost([1.0, 2.0, 3.0], 0, 2) - 2.0) < 1e-12

    def test_prefix_sums_match_naive(self):
        rng = np.random.default_rng(0)
        y = rng.normal(1.5, 2.0, 400)
        costs = SegmentCosts(y, L2)
        for _ in range(1000):
            t1 = int(rng.integers(0, 399))
            t2 = int(rng.integers(t1, 400))
            seg = y[t1:t2 + 1]
            naive = float(np.sum((seg - seg.mean()) ** 2))
            got = costs.cost(t1, t2)
            assert abs(got - naive) <= 1e-9 * max(1.0, abs(naive))

    def test_gaussian_nll_formula(self):
        rng = np.random.default_rng(1)
        y = rng.normal(0, 2, 50)
        model = CostModel("gaussian_nll", variance_floor=1e-8)
        for (t1, t2) in [(0, 49), (3, 17), (10, 11)]:
            seg = y[t1:t2 + 1]
            var = float(np.mean((seg - seg.mean()) ** 2))
            expect = 0.5 * (t2 - t1 + 1) * math.log(max(var, 1e-8))
            assert abs(segment_cost(y, t1, t2, model) - expect) < 1e-9

    def test_too_short(self):
        with pytest.raises(SegmentTooShort):
            segment_cost([1.0, 2.0, 3.0], 1, 1, NLL)  # variance needs 2 points
        with pytest.raises(SegmentTooShort):
            segment_cost([1.0, 2.0], 1, 0)


class TestPelt:
    def test_constant_series_no_changepoints(self):
        seg = pelt_detect(np.full(100, 3.0), L2, PenaltyConfig(0.5))
        assert seg.changepoints == ()
        assert seg.total_cost == 0.0

    def test_noiseless_step(self):
        seg = pelt_detect(step_series(50, 50), L2, PenaltyConfig(5.0))
        assert seg.changepoints == (50,)
        # unsplit cost 50*25 + 50*25 = 2500 >> 0 + beta
        assert abs(seg.total_cost - 5.0) < 1e-12

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            pelt_detect(np.array([1.0, 2.0, 3.0]), min_size=2)

    def test_agrees_with_op_on_random_series(self):
        rng = np.random.default_rng(7)
        for trial in range(120):
            y = random_step_series(rng)
            model = L2 if trial % 2 == 0 else NLL
            pen = PenaltyConfig(float(rng.uniform(0.1, 30.0)))
            a = pelt_detect(y, model, pen)
            b = op_detect(y, model, pen)
            assert a.changepoints == b.changepoints
            assert abs(a.total_cost - b.total_cost) <= 1e-9

    def test_agrees_with_op_on_tie_heavy_series(self):
        y = np.array([0.0] * 30 + [4.0] * 30 + [0.0] * 30)
        for beta in (0.5, 2.0, 10.0, 1e4):
            a = pelt_detect(y, L2, PenaltyConfig(beta))
            b = op_detect(y, L2, PenaltyConfig(beta))
            assert a.changepoints == b.changepoints
            assert a.total_cost == b.total_cost

    def test_min_size_respected(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            y = rng.normal(0, 1, 60)
            y[30:] += 5.0
            for min_size in (2, 3, 7):
                seg = pelt_detect(y, L2, PenaltyConfig(2.0), min_size=min_size)
                bounds = (0,) + seg.changepoints + (60,)
                assert min(b - a for a, b in zip(bounds, bounds[1:])) >= min_size

    def test_pruning_safety_instrumented(self):
        # Candidates dropped by the pruning rule must never reappear as the
        # oracle's optimal predecessor for any later prefix.
        rng = np.random.default_rng(9)
        for _ in range(25):
            y = random_step_series(rng, n_max=150)
            pen = PenaltyConfig(float(rng.uniform(0.5, 10.0)))
            _, state = pelt_detect(y, L2, pen, with_state=True)
            _, bp = op_detect(y, L2, pen, with_state=True)
            for tau, step in state.pruned:
                later = bp[step:]
                assert not np.any(later == tau), (tau, step)

    def test_penalty_monotonicity(self):
        rng = np.random.default_rng(10)
        y = random_step_series(rng, n_max=180)
        counts = [pelt_detect(y, L2, PenaltyConfig(b)).m
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


class TestPeltExactness:
    @settings(max_examples=200, deadline=None)
    @given(X=tie_prone_series(), min_size=st.integers(2, 5),
           model=st.sampled_from([L2, NLL]),
           beta=st.sampled_from([0.0, 0.25, 1.0, 4.0, 20.0]))
    def test_pelt_equals_op(self, X, min_size, model, beta):
        assume(len(X) >= 2 * min_size)
        pen = PenaltyConfig(beta)
        seg, state = pelt_detect(X, model, pen, min_size, with_state=True)
        oracle, bp = op_detect(X, model, pen, min_size, with_state=True)
        assert seg.changepoints == oracle.changepoints
        assert seg.total_cost.hex() == oracle.total_cost.hex()
        assert state.backpointers.tobytes() == bp.tobytes()

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
            seg = detect(y, L2, PenaltyConfig(0.0), min_size)
            assert (seg.m, seg.changepoints) == (m, cps)

    @pytest.mark.parametrize("y,beta,expect", [
        # (4,) and (1, 3) both total 1.5: fewer changepoints win
        ([1.0, 0.0, 0.0, 1.0, 2.0], 0.5, (4,)),
        # (2, 3) and (2, 4) both total 2.5: the earliest set wins
        ([0.0, 0.0, 2.0, 1.0, 0.0], 1.0, (2, 3)),
    ])
    def test_exact_tie_cases(self, y, beta, expect):
        for detect in (pelt_detect, op_detect):
            assert detect(np.array(y), L2, PenaltyConfig(beta), 1).changepoints == expect

    # sha256 of PeltState.F and .backpointers for l2_mean on what retrain's
    # detection sees on the default synth (seed 1), recorded before the
    # per-candidate kernel replaced per-step gathers
    GOLDEN = {
        True: ("ceb109642a33b779a82f3ae6d55ecefdfb686d14ea19b044f174b63f48a1c6dc",
               "6c00cf010d7b73489fa36a06a87b7ac3cafc60b8d2038f010c2402a49b9dd288"),
        False: ("1a147eb09a3167ef699b7f3b7c6486916154a55f19db0aaed1f0f75706e2fb0f",
                "106b99ba2dddd9e96b5852687bd76c6ab9f6db8ffcd538dd530fb25004c3cb03"),
    }

    @pytest.mark.parametrize("on_target", [True, False], ids=["target", "lags"])
    def test_golden_state_on_default_synth(self, on_target):
        config = pipeline.StrategyConfig(
            detection=pipeline.DetectionConfig(on_target=on_target))
        frame = synth.generate(synth.SynthConfig(seed=1))
        prep = pipeline._prepare(frame, synth.TARGET_COLUMN, config)
        with mock.patch.object(pipeline.cp, "pelt_detect",
                               return_value=Segmentation((), 1, 0.0)) as fake:
            pipeline.detect_training_drift(prep, config)
        values, model, penalty, min_size = fake.call_args.args
        assert np.shape(values) == ((27883,) if on_target else (27883, 3))
        _, state = pelt_detect(values, model, penalty, min_size, with_state=True)
        digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()
        assert (digest(state.F), digest(state.backpointers)) == self.GOLDEN[on_target]


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_detectors_reject_non_finite(self, bad):
        y = np.linspace(0.0, 1.0, 20)
        y[7] = bad
        for detect in (pelt_detect, op_detect):
            with pytest.raises(NonFiniteValues):
                detect(y, L2, PenaltyConfig(1.0))
        with pytest.raises(NonFiniteValues):
            default_penalty(y)

    def test_overflowing_sum_of_squares(self):
        y = np.tile([1e200, -1e200], 10)
        with pytest.raises(NonFiniteValues), np.errstate(over="ignore"):
            pelt_detect(y, L2, PenaltyConfig(1.0))

    @pytest.mark.parametrize("beta", [-1.0, np.nan, np.inf])
    def test_penalty_must_be_finite_and_non_negative(self, beta):
        with pytest.raises(InvalidConfig):
            PenaltyConfig(beta)


class TestOpDetect:
    def test_constant(self):
        assert op_detect(np.ones(40), L2, PenaltyConfig(1.0)).changepoints == ()

    def test_noiseless_step_small_n(self):
        for k in (5, 9, 14):
            y = step_series(k, 20 - k)
            seg = op_detect(y, L2, PenaltyConfig(1.0))
            assert seg.changepoints == (k,)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(6, 13))
            y = rng.normal(0, 1, n)
            if rng.random() < 0.5:
                y[n // 2:] += rng.uniform(2, 6)
            beta = float(rng.uniform(0.2, 8.0))
            seg = op_detect(y, L2, PenaltyConfig(beta))
            objective, m, cps = exhaustive_min(y, L2, beta)
            assert seg.changepoints == cps
            assert abs(seg.total_cost - objective) < 1e-9


class TestDefaultPenalty:
    def test_constant_series_floor(self):
        pen = default_penalty(np.full(50, 2.0))
        assert pen.beta == 1e-12
        assert pelt_detect(np.full(50, 2.0), L2, pen).changepoints == ()

    def test_white_noise_monte_carlo(self):
        expect = 2.0 * math.log(1000)
        betas = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            betas.append(default_penalty(rng.normal(0, 1, 1000)).beta)
        mean_beta = float(np.mean(betas))
        assert abs(mean_beta - expect) / expect < 0.2

    def test_step_series_arithmetic(self):
        pen = default_penalty(step_series(50, 50))
        expect = 2.0 * (100.0 / 2.0 / 99.0) * math.log(100)
        assert abs(pen.beta - expect) < 1e-12

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            default_penalty(np.array([1.0, 2.0]))


def make_frame(columns):
    n = len(next(iter(columns.values())))
    ts = np.arange(0, n * HOUR, HOUR, dtype=np.int64)
    return TimeSeriesFrame(ts, {k: np.asarray(v, float) for k, v in columns.items()})


class TestMultivariate:
    def test_single_column_identical(self):
        rng = np.random.default_rng(12)
        y = random_step_series(rng, n_max=150)
        frame = make_frame({"a": y})
        pen = PenaltyConfig(3.0)
        assert multivariate_detect(frame, ["a"], L2, pen).changepoints == \
            pelt_detect(y, L2, pen).changepoints

    def test_two_identical_columns_halve_penalty(self):
        rng = np.random.default_rng(13)
        y = random_step_series(rng, n_max=150)
        frame = make_frame({"a": y, "b": y})
        joint = multivariate_detect(frame, ["a", "b"], L2, PenaltyConfig(6.0))
        single = op_detect(y, L2, PenaltyConfig(3.0))
        assert joint.changepoints == single.changepoints

    def test_step_in_one_column_only(self):
        rng = np.random.default_rng(14)
        flat = rng.normal(0, 0.5, 120)
        stepped = rng.normal(0, 0.5, 120)
        stepped[70:] += 8.0
        frame = make_frame({"a": stepped, "b": flat})
        joint = multivariate_detect(frame, ["a", "b"], L2, PenaltyConfig(4.0))
        X = np.column_stack([stepped, flat])
        oracle = op_detect(X, L2, PenaltyConfig(4.0))
        assert joint.changepoints == oracle.changepoints
        assert any(abs(c - 70) <= 1 for c in joint.changepoints)

    def test_never_reads_unlisted_columns(self):
        rng = np.random.default_rng(15)
        y = random_step_series(rng, n_max=150)
        target = rng.normal(0, 1, y.size)
        poisoned = np.full(y.size, np.nan)
        a = multivariate_detect(make_frame({"x": y, "target": target}),
                                ["x"], L2, PenaltyConfig(2.0))
        b = multivariate_detect(make_frame({"x": y, "target": poisoned}),
                                ["x"], L2, PenaltyConfig(2.0))
        assert a == b

    def test_per_column_union(self):
        rng = np.random.default_rng(16)
        a = np.concatenate([np.zeros(60), np.full(60, 6.0)]) + rng.normal(0, 0.3, 120)
        b = np.concatenate([np.zeros(90), np.full(30, 6.0)]) + rng.normal(0, 0.3, 120)
        per, union = per_column_detect(make_frame({"a": a, "b": b}), ["a", "b"])
        assert any(abs(c - 60) <= 1 for c in per["a"].changepoints)
        assert any(abs(c - 90) <= 1 for c in per["b"].changepoints)
        assert union == sorted(set(per["a"].changepoints) | set(per["b"].changepoints))


class TestLastChangepoint:
    def test_cases(self):
        assert last_changepoint(Segmentation((50,), 100, 0.0)) == 50
        assert last_changepoint(Segmentation((), 100, 0.0)) is None
        assert last_changepoint(Segmentation((30, 70), 100, 0.0)) == 70


class TestSerialization:
    def test_to_dict(self):
        seg = Segmentation((5, 9), 20, 1.25, beta=0.5, cost_model="l2_mean")
        d = seg.to_dict()
        assert d == {"n": 20, "changepoints": [5, 9], "total_cost": 1.25,
                     "beta": 0.5, "cost_model": "l2_mean"}
