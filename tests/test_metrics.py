import csv
from dataclasses import replace

import numpy as np
import pytest

import wnsf.metrics as metrics_mod
from wnsf.estimator import (
    IdentificationError,
    ModelOrders,
    ThetaEstimate,
    WnsfOptions,
    wnsf_identify,
)
from wnsf.lti import Polynomial, RationalFilter
from wnsf.metrics import (
    McExperiment,
    adaptive_impulse_length,
    fit_metric,
    fit_of_models,
    mse_metric,
    run_monte_carlo,
)
from wnsf.simulate import LoopConfig, generate

BJ_ORDERS = ModelOrders(2, 2, 1, 1)


def _experiment(cfg, n=50):
    return McExperiment(
        loop=cfg,
        orders=BJ_ORDERS,
        options=WnsfOptions(n_grid=(n,), known_zero_ic=True),
        base_seed=100,
    )


class TestFitMetric:
    def test_perfect_match(self):
        g = np.array([1.0, 0.5, 0.25])
        assert fit_metric(g, g) == 100.0

    def test_mean_predictor_scores_zero(self):
        g = np.array([1.0, 0.0, -1.0, 0.0])
        assert fit_metric(g, np.full(4, np.mean(g))) == pytest.approx(0.0)

    def test_hand_evaluated_negative(self):
        val = fit_metric(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert val == pytest.approx(100 * (1 - np.sqrt(2)), abs=1e-10)

    def test_constant_truth_rejected(self):
        with pytest.raises(ZeroDivisionError):
            fit_metric(np.ones(5), np.zeros(5))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_metric(np.ones(5), np.ones(4))

    def test_invariant_to_padding_for_zero_sum_response(self):
        # exact invariance whenever the true response sums to zero, since
        # only the mean-centering term can feel appended zeros
        from wnsf.lti import impulse_response

        g_true_f = RationalFilter(Polynomial([0.0, 1.0, -1.0]),
                                  Polynomial([1.0, -0.5]))
        g_hat_f = RationalFilter(Polynomial([0.0, 1.0, -1.02]),
                                 Polynomial([1.0, -0.48]))
        length = max(adaptive_impulse_length(g_true_f),
                     adaptive_impulse_length(g_hat_f))
        g_true = impulse_response(g_true_f, length)
        g_true -= np.mean(g_true)  # zero-sum by construction up to round-off
        g_hat = impulse_response(g_hat_f, length)
        base = fit_metric(g_true, g_hat)
        pad = np.zeros(1024)
        padded = fit_metric(np.concatenate([g_true, pad]),
                            np.concatenate([g_hat, pad]))
        assert abs(base - padded) < 1e-6

    def test_padding_effect_bounded_by_mean_dilution(self, bench_system):
        # for a response with nonzero sum the only padding sensitivity is
        # the diluted mean in the denominator; bound the change by it
        from wnsf.lti import impulse_response

        g_est = RationalFilter(Polynomial([0.0, 1.0, 0.11]),
                               Polynomial([1.0, -0.52, 0.74]))
        length = max(adaptive_impulse_length(bench_system.G),
                     adaptive_impulse_length(g_est))
        g_true = impulse_response(bench_system.G, length)
        g_hat = impulse_response(g_est, length)
        base = fit_metric(g_true, g_hat)
        pad = np.zeros(1024)
        padded = fit_metric(np.concatenate([g_true, pad]),
                            np.concatenate([g_hat, pad]))
        d0 = np.linalg.norm(g_true - np.mean(g_true))
        d1 = np.linalg.norm(np.concatenate([g_true, pad])
                            - np.mean(np.concatenate([g_true, pad])))
        err = np.linalg.norm(g_true - g_hat)
        bound = 100 * err * abs(1 / d0 - 1 / d1)
        assert abs(base - padded) <= bound + 1e-12


class TestAdaptiveLength:
    def test_short_memory_filter(self):
        f = RationalFilter(Polynomial([1.0]), Polynomial([1.0, -0.5]))
        length = adaptive_impulse_length(f)
        assert 64 <= length <= 192

    def test_slow_filter_needs_more(self):
        fast = adaptive_impulse_length(
            RationalFilter(Polynomial([1.0]), Polynomial([1.0, -0.5])))
        slow = adaptive_impulse_length(
            RationalFilter(Polynomial([1.0]), Polynomial([1.0, -0.995])))
        assert slow > fast

    def test_cap_respected(self):
        f = RationalFilter(Polynomial([1.0]), Polynomial([1.0, -0.999999]))
        assert adaptive_impulse_length(f) == 8192


class TestMseMetric:
    def test_zero_at_truth(self, bench_system):
        assert mse_metric(bench_system.theta, bench_system.theta) == 0.0

    def test_single_entry_error(self):
        a = np.zeros(4)
        b = np.zeros(4)
        b[2] = 0.1
        assert mse_metric(a, b) == pytest.approx(0.01)

    def test_dynamic_block_selects_four_entries(self, bench_system,
                                                unit_controller, monkeypatch):
        # a campaign's mse counts the F and L blocks of theta only
        theta = bench_system.theta.copy()
        theta[3] += 0.5
        theta[4] += 1.0  # noise-model entry must not count
        est = ThetaEstimate(theta, BJ_ORDERS, n_used=50, iterations=1)
        monkeypatch.setattr(metrics_mod, "wnsf_identify", lambda *args: est)
        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         N=300, seed=0)
        run = run_monte_carlo(_experiment(cfg), runs=1).runs[0]
        assert run.ok and run.mse == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse_metric(np.zeros(3), np.zeros(4))


class TestMonteCarlo:
    @pytest.mark.parametrize("counts", [
        {"runs": 2.5}, {"runs": 0}, {"runs": True},
        {"runs": 2, "parallelism": 0}, {"runs": 2, "parallelism": -3}])
    def test_bad_counts_rejected(self, bench_system, counts):
        # parallelism 0 or -3 used to run serially without a word, and
        # runs=2.5 ended in a TypeError
        exp = _experiment(LoopConfig(system=bench_system, N=200))
        with pytest.raises(ValueError, match=f"^{list(counts)[-1]} "):
            run_monte_carlo(exp, **counts)

    def test_single_run_reproduces_identify(self, bench_system,
                                            unit_controller):
        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         N=2000, seed=0)
        exp = _experiment(cfg)
        result = run_monte_carlo(exp, runs=1)
        run = result.runs[0]
        data = generate(LoopConfig(system=bench_system,
                                   controller=unit_controller,
                                   N=2000, seed=exp.base_seed))
        est = wnsf_identify(data, exp.orders, exp.options)
        assert np.array_equal(run.theta, est.theta)
        assert run.pem_cost == est.pem_cost

    def test_determinism(self, bench_system, unit_controller):
        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         N=2000, seed=0)
        r1 = run_monte_carlo(_experiment(cfg), runs=4)
        r2 = run_monte_carlo(_experiment(cfg), runs=4)
        assert r1.aggregate() == r2.aggregate()
        assert np.array_equal(r1.thetas(), r2.thetas())

    def test_parallelism_is_transparent(self, bench_system, unit_controller):
        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         N=2000, seed=0)
        serial = run_monte_carlo(_experiment(cfg), runs=4, parallelism=1)
        parallel = run_monte_carlo(_experiment(cfg), runs=4, parallelism=4)
        assert serial.aggregate() == parallel.aggregate()
        assert np.array_equal(serial.thetas(), parallel.thetas())

    @pytest.mark.parametrize("runs, jobs, pools", [
        (2, 64, [2]), (3, 2, [2]), (1, 8, [])])
    def test_pool_has_at_most_one_worker_per_run(self, bench_system,
                                                 unit_controller, monkeypatch,
                                                 runs, jobs, pools):
        # under fork every worker starts at the first submit, so 64 jobs for
        # 2 runs used to fork 64 interpreters; this pool maps in-process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         N=300, seed=0)
        exp = _experiment(cfg, n=20)
        serial = run_monte_carlo(exp, runs=runs)
        monkeypatch.setattr(metrics_mod, "ProcessPoolExecutor", RecordingPool)
        pooled = run_monte_carlo(exp, runs=runs, parallelism=jobs)
        assert sizes == pools
        assert pooled.aggregate() == serial.aggregate()
        assert np.array_equal(pooled.thetas(), serial.thetas())

    def test_aggregate_recomputable_from_csv(self, bench_system,
                                             unit_controller, tmp_path):
        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         N=2000, seed=0)
        result = run_monte_carlo(_experiment(cfg), runs=5)
        path = tmp_path / "runs.csv"
        result.write_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        fits = np.array([float(r["fit"]) for r in rows if r["fit"]])
        agg = result.aggregate()
        assert abs(agg["fit"]["mean"] - np.mean(fits)) < 1e-12
        assert abs(agg["fit"]["median"] - np.median(fits)) < 1e-12
        q1, q3 = np.percentile(fits, [25, 75])
        assert abs(agg["fit"]["q1"] - q1) < 1e-12
        assert abs(agg["fit"]["q3"] - q3) < 1e-12

    def test_failure_isolation(self, bench_system, unit_controller,
                               monkeypatch):
        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         N=2000, seed=0)
        exp = _experiment(cfg)
        clean = run_monte_carlo(exp, runs=3)
        poisoned_seed = exp.base_seed + 1
        poisoned_y = generate(replace(cfg, seed=poisoned_seed)).y
        real_identify = metrics_mod.wnsf_identify

        def poisoned(data, orders, options):
            if np.array_equal(data.y, poisoned_y):
                raise IdentificationError("poisoned run")
            return real_identify(data, orders, options)

        monkeypatch.setattr(metrics_mod, "wnsf_identify", poisoned)
        result = run_monte_carlo(exp, runs=3)
        assert result.failures == 1
        bad = [r for r in result.runs if not r.ok]
        assert len(bad) == 1 and bad[0].seed == poisoned_seed
        for r_clean, r_new in zip(clean.runs, result.runs):
            if r_new.ok:
                assert np.array_equal(r_clean.theta, r_new.theta)

    def test_run_config_is_loop_with_run_seed(self, fast_oe_system,
                                              monkeypatch):
        # every field of the loop must reach every run
        cfg = LoopConfig(system=fast_oe_system,
                         controller=RationalFilter(Polynomial([0.03])),
                         reference_gain=2.0, noise_std=0.5, N=50, seed=0)
        exp = McExperiment(loop=cfg, orders=ModelOrders(3, 2),
                           options=WnsfOptions(n_grid=(10,)), base_seed=7)
        seen = []
        real_generate = metrics_mod.generate

        def capture(c, r=None):
            seen.append(c)
            return real_generate(c, r)

        monkeypatch.setattr(metrics_mod, "generate", capture)
        result = run_monte_carlo(exp, runs=3)
        assert len(result.runs) == 3
        assert seen == [replace(cfg, seed=s) for s in (7, 8, 9)]

    def test_unstable_loop_becomes_failed_runs(self, fast_oe_system,
                                               tmp_path):
        # generate raises UnstableLoopError for every seed of this loop
        cfg = LoopConfig(system=fast_oe_system,
                         controller=RationalFilter(Polynomial([0.3])),
                         noise_std=0.5, N=50, seed=0)
        exp = McExperiment(loop=cfg, orders=ModelOrders(3, 2),
                           options=WnsfOptions(n_grid=(10,)))
        for jobs in (1, 2):
            result = run_monte_carlo(exp, runs=2, parallelism=jobs)
            assert result.failures == 2
            assert [r.error for r in result.runs] == [
                "UnstableLoopError: closed-loop sensitivity is unstable"] * 2
        path = tmp_path / "runs.csv"
        result.write_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["error"] for r in rows] == [r.error for r in result.runs]
        assert all(r["fit"] == "" for r in rows)

    def test_undefined_fit_becomes_failed_run(self, bench_system,
                                              unit_controller, monkeypatch):
        cfg = LoopConfig(system=bench_system, controller=unit_controller,
                         N=2000, seed=0)

        def constant_truth(g_true, g_est):
            raise ZeroDivisionError("true response is constant")

        monkeypatch.setattr(metrics_mod, "fit_of_models", constant_truth)
        result = run_monte_carlo(_experiment(cfg), runs=1)
        assert result.failures == 1
        assert result.runs[0].error == (
            "ZeroDivisionError: true response is constant")

    def test_invalid_run_count(self, bench_system):
        cfg = LoopConfig(system=bench_system, N=500, seed=0)
        with pytest.raises(ValueError):
            run_monte_carlo(_experiment(cfg), runs=0)
