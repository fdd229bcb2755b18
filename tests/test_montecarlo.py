import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import normal_es
from riskengine import ReturnSeries, montecarlo, write_csv
from riskengine.cli import main
from riskengine.errors import ConfigError, DataError, TailTooSmallError
from riskengine.garch import GarchFit, GarchParams, filter, next_variance
from riskengine.mathstat import norm_inv_cdf, tail_rank
from riskengine.montecarlo import (
    _BLOCK,
    McConfig,
    run_mc,
    simulate_cumulative,
    simulate_garch_returns,
    term_structure,
)


def _fit(params, n=500, seed=80, z_pool=None):
    """GarchFit over simulated data, optionally with a replaced residual pool."""
    r = simulate_garch_returns(params, n, seed=seed)
    sigma, z = filter(r, params)
    if z_pool is not None:
        z = np.asarray(z_pool, float)
    return GarchFit(params=params, sigma=sigma, z=z, loglik=0.0, converged=True)


IID = GarchParams(omega=1e-4, alpha=0.0, beta=0.0)


def one_shot_cumulative(fit, cfg):
    """Draw the whole innovation matrix, then run the row-major recursion."""
    rng = np.random.Generator(np.random.SFC64(cfg.seed))
    shape = (cfg.n_paths, cfg.horizon)
    if cfg.innovation == "normal":
        innov = rng.standard_normal(shape)
    else:
        pool = np.asarray(fit.z, float)
        innov = pool[rng.integers(0, pool.size, size=shape)]
    p = fit.params
    last_r = float(fit.sigma[-1] * fit.z[-1])
    v = np.full(cfg.n_paths, next_variance(p, last_r, float(fit.sigma[-1] ** 2)))
    cum = np.zeros(cfg.n_paths)
    out = np.empty(shape)
    for h in range(cfg.horizon):
        r = np.sqrt(v) * innov[:, h]
        cum = cum + r
        out[:, h] = cum
        v = p.omega + p.alpha * r * r + p.beta * v
    return out


def _bytes(ts):
    return ts.var.tobytes() + ts.es.tobytes()


def _matrix_oracle(fit, cfg):
    """run_mc's answer from the whole path matrix."""
    return term_structure(simulate_cumulative(fit, cfg), cfg.level)


class TestConfig:
    def test_defaults(self):
        cfg = McConfig(seed=1)
        assert cfg.n_paths == 1000 and cfg.horizon == 5 and cfg.level == 0.01

    @pytest.mark.parametrize("kwargs", [
        {"seed": -1}, {"seed": 2 ** 64}, {"n_paths": 50}, {"horizon": 0},
        {"horizon": 251}, {"level": 0.5}, {"innovation": "cauchy"},
        {"n_paths": 2 ** 28 // 10 + 1, "horizon": 10},
        {"n_paths": 10 ** 9},
    ])
    def test_invalid(self, kwargs):
        base = {"seed": 1}
        base.update(kwargs)
        with pytest.raises(ConfigError):
            McConfig(**base)

    def test_tail_too_small_is_refused_up_front(self):
        with pytest.raises(TailTooSmallError):
            McConfig(seed=1, n_paths=100, level=0.01)
        assert McConfig(seed=1, n_paths=500, level=0.01).n_paths == 500

    def test_largest_accepted_size(self):
        # exactly 2**28 cells, checked from the shape alone (nothing allocated)
        cfg = McConfig(seed=1, n_paths=2 ** 25, horizon=8)
        assert cfg.n_paths * cfg.horizon == 2 ** 28

    @pytest.mark.parametrize("n_paths, horizon, level, accepted", [
        (2 ** 26, 1, 0.25, True),  # k = 2**24 exactly
        (2 ** 26 + 4, 1, 0.25, False),  # k = 2**24 + 1
        (2 ** 28 // 3, 3, 0.0625, True),  # k = ceil(2**24 / 3)
        (2 ** 28 // 3, 3, 0.0626, False),
        (2 ** 28, 1, 0.49, False),  # k = 131,533,374: a tail of 1 GB
    ])
    def test_tail_cell_cap(self, n_paths, horizon, level, accepted):
        # constructed only: a run at these sizes would hold gigabytes
        kwargs = dict(seed=1, n_paths=n_paths, horizon=horizon, level=level)
        if accepted:
            assert McConfig(**kwargs).n_paths == n_paths
        else:
            with pytest.raises(ConfigError, match="tail paths"):
                McConfig(**kwargs)

    def test_tail_cell_cap_spares_levels_up_to_a_sixteenth(self):
        for horizon in range(1, 251):
            McConfig(seed=1, n_paths=2 ** 28 // horizon, horizon=horizon,
                     level=0.0625)


class TestSimulateCumulative:
    def test_iid_column_variance(self):
        # alpha=beta=0: each step is i.i.d. N(0, omega), so column h has
        # variance omega*h
        fit = _fit(IID)
        cfg = McConfig(seed=5, n_paths=200_000, horizon=5, level=0.01)
        cum = simulate_cumulative(fit, cfg)
        for h in range(5):
            observed = float(np.var(cum[:, h]))
            assert observed == pytest.approx(1e-4 * (h + 1), rel=0.05)

    def test_degenerate_residual_pool(self):
        params = GarchParams(omega=1e-4, alpha=0.05, beta=0.9)
        fit = _fit(params, z_pool=np.zeros(300))
        cfg = McConfig(seed=6, n_paths=500, horizon=4, innovation="fhs")
        cum = simulate_cumulative(fit, cfg)
        assert np.all(cum == 0.0)

    def test_empty_residual_pool(self):
        params = GarchParams(omega=1e-4, alpha=0.05, beta=0.9)
        fit = _fit(params, z_pool=np.array([]))
        with pytest.raises(DataError):
            simulate_cumulative(fit, McConfig(seed=6, innovation="fhs"))

    def test_same_seed_same_matrix(self):
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=7, n_paths=300, horizon=5, level=0.05)
        a = simulate_cumulative(fit, cfg)
        b = simulate_cumulative(fit, cfg)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        a = simulate_cumulative(fit, McConfig(seed=7, n_paths=300, level=0.05))
        b = simulate_cumulative(fit, McConfig(seed=8, n_paths=300, level=0.05))
        assert not np.array_equal(a, b)

    def test_thread_count_does_not_change_output(self, monkeypatch):
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=9, n_paths=150_000, horizon=3)
        monkeypatch.setenv("RISK_THREADS", "1")
        a = simulate_cumulative(fit, cfg)
        monkeypatch.setenv("RISK_THREADS", "8")
        b = simulate_cumulative(fit, cfg)
        assert np.array_equal(a, b)
        # the setting is ignored, so a non-integer neither raises nor matters
        monkeypatch.setenv("RISK_THREADS", "abc")
        c = simulate_cumulative(fit, cfg)
        assert np.array_equal(a, c)

    @pytest.mark.parametrize("kind", ["normal", "fhs"])
    def test_streamed_blocks_match_one_shot_oracle(self, kind):
        # 2.5 blocks: two full blocks and a partial one
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=17, n_paths=5 * _BLOCK // 2, horizon=4,
                       innovation=kind)
        cum = simulate_cumulative(fit, cfg)
        assert np.array_equal(cum, one_shot_cumulative(fit, cfg))
        assert cum[:, 0].flags.c_contiguous

    @pytest.mark.parametrize("kind", ["normal", "fhs"])
    def test_peak_allocation_near_output_size(self, kind):
        # a 16 MB output; drawing every innovation up front would double it
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=18, n_paths=200_000, horizon=10, innovation=kind)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            cum = simulate_cumulative(fit, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * cum.nbytes

    def test_first_step_uses_forecast_variance(self):
        # a single-value residual pool makes every first step exactly
        # sigma_{T+1} * z
        params = GarchParams(omega=1e-4, alpha=0.05, beta=0.9)
        fit = _fit(params, z_pool=np.array([1.0]))
        cfg = McConfig(seed=10, n_paths=200, horizon=1, level=0.05,
                       innovation="fhs")
        cum = simulate_cumulative(fit, cfg)
        r_last = fit.sigma[-1] * fit.z[-1]
        v_next = (params.omega + params.alpha * r_last ** 2
                  + params.beta * fit.sigma[-1] ** 2)
        assert np.allclose(cum[:, 0], math.sqrt(v_next), rtol=1e-12)


class TestBlockEdges:
    @pytest.mark.parametrize("kind", ["normal", "fhs"])
    @pytest.mark.parametrize("n_paths", [_BLOCK, _BLOCK + 1],
                             ids=["one-block", "last-block-of-one-path"])
    def test_matches_oracles(self, kind, n_paths):
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=22, n_paths=n_paths, horizon=6, level=0.01,
                       innovation=kind)
        cum = simulate_cumulative(fit, cfg)
        assert cum.tobytes() == one_shot_cumulative(fit, cfg).tobytes()
        assert _bytes(run_mc(fit, cfg)) == _bytes(_matrix_oracle(fit, cfg))

    def test_negative_zero_innovations_accumulate_to_positive_zero(self):
        # r = sqrt(v) * -0.0 is -0.0, and the running sum 0.0 + -0.0 is 0.0
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9),
                   z_pool=np.array([-0.0]))
        cfg = McConfig(seed=22, n_paths=_BLOCK + 1, horizon=3, level=0.01,
                       innovation="fhs")
        cum = simulate_cumulative(fit, cfg)
        assert cum.tobytes() == np.zeros(cum.shape).tobytes()


def _raise_on_third_block(exc):
    """A stand-in for montecarlo._draws whose third block raises ``exc``."""
    draws = montecarlo._draws

    def failing(rng, pool, cfg):
        for i, block in enumerate(draws(rng, pool, cfg)):
            if i == 2:
                raise exc
            yield block

    return failing


class TestHelperThread:
    """With more than one block, the next block is drawn on a helper thread."""

    def test_draw_error_reaches_the_caller(self):
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=23, n_paths=5 * _BLOCK, horizon=3)
        exc = MemoryError("Unable to allocate 1.00 GiB")
        before = threading.enumerate()
        with mock.patch.object(montecarlo, "_draws", _raise_on_third_block(exc)):
            with pytest.raises(MemoryError) as info:
                run_mc(fit, cfg)
        assert info.value is exc
        assert threading.enumerate() == before

    def test_draw_memory_error_exits_4(self, tmp_path, capsys):
        r = simulate_garch_returns(GarchParams(2e-6, 0.08, 0.90), 600, seed=1)
        src = tmp_path / "returns.csv"
        write_csv(ReturnSeries(
            dates=[date.fromordinal(730000 + i) for i in range(len(r))],
            returns=r), src)
        exc = MemoryError("Unable to allocate 1.00 GiB")
        before = threading.enumerate()
        with mock.patch.object(montecarlo, "_draws", _raise_on_third_block(exc)):
            code = main(["mc", str(src), "--seed", "1", "--paths", "50000",
                         "--out", str(tmp_path / "mc.csv")])
        assert code == 4
        assert capsys.readouterr().err == (
            "riskengine: config error: out of memory: "
            "Unable to allocate 1.00 GiB\n")
        assert threading.enumerate() == before

    def test_closed_after_first_block_leaves_no_helper(self):
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=24, n_paths=5 * _BLOCK, horizon=3)
        before = threading.enumerate()
        blocks = montecarlo._blocks(fit, cfg)
        next(blocks)
        assert len(threading.enumerate()) == len(before) + 1
        blocks.close()
        assert threading.enumerate() == before

    def test_caller_error_leaves_no_helper(self):
        # as in run_mc, the loop holds the only reference to the generator
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=24, n_paths=5 * _BLOCK, horizon=3)
        before = threading.enumerate()
        alive = []

        def consume():
            for _ in montecarlo._blocks(fit, cfg):
                alive.append(len(threading.enumerate()))
                raise ValueError("the caller failed")

        with pytest.raises(ValueError):
            consume()
        assert alive == [len(before) + 1]
        assert threading.enumerate() == before

    def test_stress_callers_closing_early(self):
        # three callers at once, each with its own helper (more threads than
        # cores), switching threads every microsecond and closing at every
        # block: each block must match the one-shot oracle, and every thread
        # must end within the time bound
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=26, n_paths=400, horizon=3, level=0.05,
                       innovation="fhs")
        block = 7
        expected = one_shot_cumulative(fit, cfg)
        before = threading.enumerate()
        errors = []

        def caller():
            try:
                for stop_at in range(0, -(-cfg.n_paths // block), 3):
                    blocks = montecarlo._blocks(fit, cfg)
                    for i, got in enumerate(blocks):
                        want = expected[i * block:(i + 1) * block].T
                        assert got.tobytes() == want.tobytes()
                        if i == stop_at:
                            break
                    blocks.close()
            except BaseException as exc:
                errors.append(exc)

        callers = [threading.Thread(target=caller, daemon=True)
                   for _ in range(3)]
        interval = sys.getswitchinterval()
        with mock.patch.object(montecarlo, "_BLOCK", block):
            sys.setswitchinterval(1e-6)
            try:
                for t in callers:
                    t.start()
                for t in callers:
                    t.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert errors == []
        assert threading.enumerate() == before

    @pytest.mark.parametrize("n_paths, started", [(_BLOCK, 0), (_BLOCK + 1, 1)])
    def test_one_block_starts_no_thread(self, n_paths, started):
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=25, n_paths=n_paths, horizon=3)
        before = threading.enumerate()
        with mock.patch.object(threading, "Thread",
                               wraps=threading.Thread) as spy:
            run_mc(fit, cfg)
        assert spy.call_count == started
        assert threading.enumerate() == before


class TestTermStructure:
    def test_forced_conventions(self):
        col = np.arange(1.0, 101.0).reshape(100, 1)
        ts = term_structure(col, 0.05)
        assert ts.var[0] == 5.0
        assert ts.es[0] == pytest.approx(3.0)

    def test_all_equal_column(self):
        col = np.full((200, 2), -0.7)
        ts = term_structure(col, 0.05)
        assert np.all(ts.var == -0.7)
        assert np.all(ts.es == -0.7)

    def test_matches_normal_oracle(self):
        rng = np.random.default_rng(81)
        col = rng.standard_normal((200_000, 1))
        ts = term_structure(col, 0.01)
        assert ts.var[0] == pytest.approx(norm_inv_cdf(0.01), rel=0.02)
        assert ts.es[0] == pytest.approx(normal_es(0.01, 1.0), rel=0.02)

    def test_es_not_above_var(self):
        rng = np.random.default_rng(82)
        cum = rng.standard_normal((5000, 6))
        ts = term_structure(cum, 0.03)
        assert np.all(ts.es <= ts.var)

    def test_tied_tail_mean_not_rounded_above_var(self):
        # ten copies of this value sum and divide to one ulp above it; an FHS
        # run with a small pool and a deep tail ties like this
        x = -0.021170287180835145
        cum = np.array([[x]] * 10 + [[0.0]] * 990)
        ts = term_structure(cum, 0.01)
        assert ts.var[0] == x
        assert ts.es[0] == x

    def test_tail_too_small(self):
        with pytest.raises(TailTooSmallError):
            term_structure(np.zeros((200, 3)), 0.01)

    def test_row_permutation_gives_same_bytes(self):
        # ES is a correctly rounded sum over the tail, so the order the
        # paths come in (and the order a partition leaves them in) is moot
        rng = np.random.default_rng(84)
        cum = rng.standard_normal((5000, 4)).cumsum(axis=1)
        expected = _bytes(term_structure(cum, 0.03))
        for _ in range(5):
            perm = rng.permutation(len(cum))
            assert _bytes(term_structure(cum[perm], 0.03)) == expected

    def test_leaves_the_matrix_unchanged(self):
        # each column is a view of the caller's matrix, so not partitioned
        cum = np.random.default_rng(85).standard_normal((5000, 3))
        before = cum.copy()
        term_structure(cum, 0.03)
        assert cum.tobytes() == before.tobytes()

    def test_es_sums_every_chunk_of_a_long_tail(self):
        # k = 90,000 spans two of _tail's fsum chunks
        col = np.random.default_rng(86).standard_normal((300_000, 1))
        ts = term_structure(col, 0.3)
        k = tail_rank(0.3, len(col))
        tail = np.sort(col[:, 0])[:k]
        assert ts.var[0] == tail[-1]
        assert ts.es[0] == min(math.fsum(tail.tolist()) / k, tail[-1])


class TestStreamedTail:
    @pytest.mark.parametrize("kind", ["normal", "fhs"])
    @pytest.mark.parametrize("horizon, level, pool", [
        (10, 0.01, None),
        (1, 0.01, None),
        (10, 0.45, None),  # k = 18,432 > _BLOCK
        (4, 0.05, np.zeros(300)),
        (5, 0.05, np.tile([-1.0, 0.5, 2.0], 100)),  # heavy ties
    ], ids=["h10", "h1", "k-above-block", "zero-pool", "three-value-pool"])
    def test_matches_matrix_oracle(self, kind, horizon, level, pool):
        # 2.5 blocks: two full blocks and a partial one
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9), z_pool=pool)
        cfg = McConfig(seed=20, n_paths=5 * _BLOCK // 2, horizon=horizon,
                       level=level, innovation=kind)
        assert _bytes(run_mc(fit, cfg)) == _bytes(_matrix_oracle(fit, cfg))

    @pytest.mark.parametrize("kind", ["normal", "fhs"])
    def test_peak_allocation_is_bounded(self, kind):
        # the [horizon, n_paths] matrix alone would be 32 MB
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=21, n_paths=400_000, horizon=10, level=0.01,
                       innovation=kind)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run_mc(fit, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10 ** 6

    @pytest.mark.parametrize("kind, horizon, doubles", [
        # doubles allocated per tail cell (horizon 1, horizon 4) by run_mc:
        # 3.36 and 2.32 with one [horizon, 2k + block] buffer compacted in
        # place; 5.20 and 2.84 if a compaction concatenates pieces again;
        # 5.36 and 2.82 if _tail partitions a copy of the kept row; 6.36 and
        # 3.07 if _tail lists the whole tail at once; 5.33 and 4.29 if the
        # buffer is as wide as all the paths
        ("normal", 1, 3.6),  # 3.36
        ("fhs", 4, 2.5),  # 2.32
    ])
    def test_peak_per_tail_cell(self, kind, horizon, doubles):
        # k = 262,144 at level 0.25: the tail, not the blocks, sets the peak
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        cfg = McConfig(seed=22, n_paths=2 ** 20, horizon=horizon, level=0.25,
                       innovation=kind)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run_mc(fit, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        k = tail_rank(cfg.level, cfg.n_paths)
        assert peak < doubles * 8 * k * horizon


class TestRunMc:
    def test_iid_scaling_oracle(self):
        fit = _fit(IID)
        cfg = McConfig(seed=11, n_paths=200_000, horizon=5, level=0.01)
        ts = run_mc(fit, cfg)
        for h in range(5):
            expected = math.sqrt(1e-4 * (h + 1)) * norm_inv_cdf(0.01)
            assert ts.var[h] == pytest.approx(expected, rel=0.03)

    def test_normal_vs_fhs_with_normal_pool(self):
        # a large N(0,1) residual pool makes FHS distributionally equivalent
        # to the normal engine at horizon 1
        pool = np.random.default_rng(83).standard_normal(10_000)
        params = GarchParams(omega=1e-4, alpha=0.0, beta=0.0)
        fit_n = _fit(params)
        fit_f = _fit(params, z_pool=pool)
        cfg_n = McConfig(seed=12, n_paths=200_000, horizon=1, level=0.01)
        cfg_f = McConfig(seed=12, n_paths=200_000, horizon=1, level=0.01,
                         innovation="fhs")
        var_n = run_mc(fit_n, cfg_n).var[0]
        var_f = run_mc(fit_f, cfg_f).var[0]
        assert var_f == pytest.approx(var_n, rel=0.05)

    def test_extreme_residual_dominates_small_tail(self):
        params = GarchParams(omega=1e-4, alpha=0.05, beta=0.9)
        pool = np.concatenate([np.zeros(99), [-10.0]])
        fit = _fit(params, z_pool=pool)
        # k = ceil(0.005 * 1000) = 5; make every draw candidate visible by
        # using level such that k=1: ceil(0.0009*1000)=1
        cfg = McConfig(seed=13, n_paths=6000, horizon=1, level=0.001,
                       innovation="fhs")
        ts = run_mc(fit, cfg)
        r_last = fit.sigma[-1] * fit.z[-1]
        v_next = (params.omega + params.alpha * r_last ** 2
                  + params.beta * fit.sigma[-1] ** 2)
        assert ts.var[0] == pytest.approx(math.sqrt(v_next) * -10.0, rel=1e-12)

    def test_seed_sensitivity(self):
        fit = _fit(GarchParams(omega=1e-4, alpha=0.08, beta=0.9))
        estimates = [
            run_mc(fit, McConfig(seed=s, n_paths=1000, horizon=1)).var[0]
            for s in range(30)
        ]
        assert float(np.std(estimates)) > 0.0

    def test_omega_scaling(self):
        cfg = McConfig(seed=14, n_paths=100_000, horizon=3, level=0.01)
        ts1 = run_mc(_fit(GarchParams(omega=1e-4, alpha=0.0, beta=0.0)), cfg)
        ts2 = run_mc(_fit(GarchParams(omega=2e-4, alpha=0.0, beta=0.0)), cfg)
        for h in range(3):
            assert ts2.var[h] == pytest.approx(math.sqrt(2) * ts1.var[h], rel=0.03)
            assert ts2.es[h] == pytest.approx(math.sqrt(2) * ts1.es[h], rel=0.03)


@st.composite
def _fits(draw):
    """A GarchFit filtered on a simulated path of its own parameters."""
    omega = draw(st.floats(1e-7, 1e-3))
    persistence = draw(st.floats(0.0, 0.99))
    alpha = persistence * draw(st.floats(0.0, 1.0))
    params = GarchParams(omega=omega, alpha=alpha, beta=persistence - alpha)
    return _fit(params, n=draw(st.integers(20, 300)),
                seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def _mc_configs(draw):
    level = draw(st.floats(0.001, 0.25))
    n_paths = draw(st.integers(100, 5000))
    assume(n_paths * level >= 5.0)
    return McConfig(seed=draw(st.integers(0, 2**64 - 1)), n_paths=n_paths,
                    horizon=draw(st.integers(1, 10)), level=level,
                    innovation=draw(st.sampled_from(["normal", "fhs"])))


class TestRunMcProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_fits(), _mc_configs(), st.integers(-20, 20))
    def test_power_of_two_scale_is_exact(self, fit, cfg, k):
        # omega x c**2 and sigma x c scale every return, hence every
        # cumulative-return quantile and tail mean, by exactly c
        c = 2.0 ** k
        scaled = replace(fit, sigma=fit.sigma * c,
                         params=replace(fit.params, omega=fit.params.omega * c * c))
        base = run_mc(fit, cfg)
        moved = run_mc(scaled, cfg)
        assert moved.var.tolist() == (c * base.var).tolist()
        assert moved.es.tolist() == (c * base.es).tolist()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_fits(), _mc_configs())
    def test_es_never_above_var(self, fit, cfg):
        ts = run_mc(fit, cfg)
        assert (ts.horizon, ts.n_paths, ts.level) == (cfg.horizon, cfg.n_paths,
                                                      cfg.level)
        assert np.all(np.isfinite(ts.var)) and np.all(np.isfinite(ts.es))
        assert np.all(ts.es <= ts.var)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_fits(), _mc_configs(), st.sampled_from([100, 333, _BLOCK]))
    def test_streamed_tail_matches_matrix_oracle(self, fit, cfg, block):
        # small blocks make the fold cross many block edges; the block size
        # does not change the paths
        with mock.patch.object(montecarlo, "_BLOCK", block):
            streamed = run_mc(fit, cfg)
        assert _bytes(streamed) == _bytes(_matrix_oracle(fit, cfg))


class TestGarchSimulator:
    def test_reproducible(self):
        params = GarchParams(omega=2e-6, alpha=0.1, beta=0.85)
        a = simulate_garch_returns(params, 500, seed=1)
        b = simulate_garch_returns(params, 500, seed=1)
        assert np.array_equal(a, b)

    def test_iid_case_variance(self):
        r = simulate_garch_returns(IID, 100_000, seed=2)
        assert float(np.var(r)) == pytest.approx(1e-4, rel=0.05)

    def test_student_t_unit_variance_scaling(self):
        r = simulate_garch_returns(IID, 200_000, seed=3,
                                   innovation="student_t")
        assert float(np.var(r)) == pytest.approx(1e-4, rel=0.05)

    def test_unknown_innovation(self):
        with pytest.raises(ConfigError):
            simulate_garch_returns(IID, 100, seed=4, innovation="bootstrap")


@st.composite
def _sim_params(draw):
    omega = draw(st.sampled_from([1e-6, 1e-4, 2.5]))
    kind = draw(st.sampled_from(["iid", "bound", "interior"]))
    if kind == "iid":
        return GarchParams(omega, 0.0, 0.0)
    alpha = draw(st.floats(min_value=0.0, max_value=0.5))
    if kind == "bound":  # alpha + beta = 1 - 1e-6
        return GarchParams(omega, alpha, 1.0 - 1e-6 - alpha)
    return GarchParams(omega, alpha,
                       draw(st.floats(min_value=0.0, max_value=0.99 - alpha)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=_sim_params(), n_obs=st.integers(min_value=1, max_value=5_000),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       innovation=st.sampled_from(["normal", "student_t"]))
def test_simulator_matches_numpy_scalar_loop_oracle(params, n_obs, seed,
                                                    innovation):
    got = simulate_garch_returns(params, n_obs, seed, innovation=innovation)
    want = oracles.simulate_garch_returns(params, n_obs, seed,
                                          innovation=innovation)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_obs, innovation", [(0, "normal"), (-1, "normal"),
                                               (10, "bootstrap")])
def test_simulator_refuses_like_the_oracle(n_obs, innovation):
    raised = []
    for simulate in (simulate_garch_returns, oracles.simulate_garch_returns):
        with pytest.raises(Exception) as info:
            simulate(IID, n_obs, seed=1, innovation=innovation)
        raised.append(type(info.value))
    assert raised == [ConfigError, ConfigError]
