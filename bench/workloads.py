"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and keeps
a pool of ``pool`` distinct inputs; op ``i`` works on input ``i % pool``.
``op`` is the timed call into the library.  ``record`` turns its raw return
into a fingerprint (plain JSON types) outside the timed region, and
``check`` lists what is wrong with a fingerprint without any stored answer.
Why each workload exists is written in ``bench/NOTES.md``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace

import numpy as np

from wnsf import cli, crb, estimator, lti, metrics, simulate
from wnsf.estimator import ModelOrders, WnsfOptions
from wnsf.lti import BjModel, Polynomial, RationalFilter
from wnsf.simulate import LoopConfig

BJ_ORDERS = ModelOrders(2, 2, 1, 1)
OE_ORDERS = ModelOrders(3, 2)

# Loose bounds on max |theta_hat - theta_o| for the checks that need no
# stored answer: about ten times the largest error seen over 40 OE datasets
# and 60 closed-loop runs.
BJ_ERR_BOUND = 0.25
OE_ERR_BOUND = 0.25


def derive(seed, *keys) -> int:
    """A 32-bit seed derived from the workload seed and integer keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def bench_system() -> BjModel:
    """Second-order Box-Jenkins bench system of the acceptance criteria."""
    return BjModel(L=Polynomial([0.0, 1.0, 0.1]),
                   F=Polynomial([1.0, -0.5, 0.75]),
                   C=Polynomial([1.0, 0.7]),
                   D=Polynomial([1.0, -0.9]))


def fast_oe_system() -> BjModel:
    """Third-order output-error plant of acceptance criterion 4."""
    return BjModel(L=Polynomial([0.0, 1.0, -1.2]),
                   F=Polynomial([1.0, -2.5, 2.4, -0.88]))


def write_config(path, gain, std, N, loop_kind="closed", wnsf=None):
    """Write an experiment config for the bench system as the CLI reads it."""
    s = bench_system()
    doc = {
        "system": {"F": s.F.to_json(), "L": s.L.to_json(),
                   "C": s.C.to_json(), "D": s.D.to_json()},
        "controller": {"num": [float(gain)], "den": [1.0]},
        "noise": {"std": float(std)},
        "experiment": {"loop_kind": loop_kind, "N": N, "seed": 0},
    }
    if wnsf is not None:
        doc["wnsf"] = wnsf
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def estimate_record(theta, n_used, iterations, pem_cost):
    return {"n_used": int(n_used), "iterations": int(iterations),
            "theta": [float(t) for t in theta], "pem_cost": float(pem_cost)}


def estimate_problems(rec, data, system, orders, err_bound):
    """Checks of one estimate that need no stored answer."""
    theta = np.asarray(rec["theta"])
    if not np.all(np.isfinite(theta)):
        return ["non-finite theta"]
    model = BjModel.from_theta(theta, orders.m_f, orders.m_l,
                               orders.m_c, orders.m_d)
    out = []
    if not (lti.is_stable(model.F)[0] and lti.is_stable(model.C)[0]):
        out.append("F or C of the estimate is unstable")
    cost = estimator.pem_cost(theta, data, orders)
    if not math.isclose(cost, rec["pem_cost"], rel_tol=1e-9):
        out.append(f"pem_cost recomputes to {cost!r}, reported "
                   f"{rec['pem_cost']!r}")
    err = float(np.max(np.abs(theta - system.theta)))
    if not err < err_bound:
        out.append(f"parameter error {err:.3g} >= {err_bound}")
    return out


class BjGrid:
    """CLI identify on the default n-grid, bench BJ system in closed loop."""

    name = "bj_grid"
    pool = 4
    pass_ops = 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.system = bench_system()
        self.out_json = os.path.join(workdir, "bj_grid_estimate.json")
        self.csvs = [os.path.join(workdir, f"bj_grid_{k}.csv")
                     for k in range(self.pool)]
        self._data = {}

    def setup(self):
        config = write_config(os.path.join(self.workdir, "bj_grid.json"),
                              gain=1.0, std=1.0, N=10000)
        for k, path in enumerate(self.csvs):
            rc = cli.main(["simulate", config, "--out", path,
                           "--seed", str(derive(self.seed, 1, k))])
            if rc != 0:
                raise RuntimeError(f"wnsf simulate exited with {rc}")

    def op(self, i):
        return cli.main(["identify", "--data", self.csvs[i % self.pool],
                         "--orders", "2,2,1,1", "--n-grid", "50:300:50",
                         "--known-zero-ic", "--out", self.out_json])

    def record(self, i, raw):
        if raw != 0:
            raise RuntimeError(f"wnsf identify exited with {raw}")
        with open(self.out_json) as fh:
            est = json.load(fh)
        return estimate_record(est["theta"], est["n_used"], est["iterations"],
                               est["pem_cost"])

    def check(self, i, rec):
        k = i % self.pool
        if k not in self._data:
            self._data[k] = simulate.DataSet.from_csv(self.csvs[k])
        return estimate_problems(rec, self._data[k], self.system, BJ_ORDERS,
                                 BJ_ERR_BOUND)

    def info(self, recs):
        fits = [metrics.fit_of_models(self.system.G, _model(r, BJ_ORDERS).G)
                for r in recs]
        return {"fit_pct": (float(np.mean(fits)), "%")}


class McClosed:
    """Monte Carlo of acceptance criterion 1: closed loop, N = 10^4, n = 50.

    An op is a serial campaign of ``runs`` runs.  One run alone takes 20 to
    170 ms on a small shared machine, depending on what else the cores are
    doing, and the median of such single runs jumps between those modes;
    the time of eight runs is far steadier.  Ops come in blocks of
    ``block``.  Before each block, a campaign over the seeds of its first
    ``campaign`` ops runs at parallelism ``jobs``.
    """

    name = "mc_closed"
    runs = 8
    block = 8
    campaign = 4
    pool = 32
    pass_ops = 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.jobs = len(os.sched_getaffinity(0))
        self.base = derive(seed, 2) % 2**31
        self.template = None
        self.dyn_trace = None

    @property
    def loop(self):
        return self.template.loop

    def run_seed(self, i, k=0):
        """Seed of run k of op i."""
        return self.base + (i % self.pool) * self.runs + k

    def experiment(self, i):
        return replace(self.template, base_seed=self.run_seed(i))

    def setup(self):
        """The config path of ``wnsf montecarlo``, plus the bound that the
        campaign's mean squared error is compared against."""
        path = write_config(
            os.path.join(self.workdir, "mc_closed.json"), gain=1.0, std=1.0,
            N=10000, wnsf={"orders": [2, 2, 1, 1], "n_grid": [50],
                           "known_zero_ic": True})
        doc = cli.load_config(path)
        loop = cli.loop_config_from(doc)
        orders, options = cli.wnsf_settings_from(doc)
        self.template = metrics.McExperiment(loop=loop, orders=orders,
                                             options=options)
        sm = crb.SpectrumModel.from_loop_config(loop)
        self.dyn_trace = crb.compute_mcr(sm).dyn_block_trace

    def op(self, i):
        return metrics.run_monte_carlo(self.experiment(i), self.runs,
                                       parallelism=1).runs

    def parallel(self, i):
        """Runs of ops i .. i + campaign - 1 at parallelism ``jobs``, split
        per op."""
        runs = metrics.run_monte_carlo(
            self.experiment(i), self.campaign * self.runs,
            parallelism=self.jobs).runs
        return [runs[k:k + self.runs]
                for k in range(0, len(runs), self.runs)]

    def record(self, i, raw):
        return {"runs": [self.run_record(run) for run in raw]}

    @staticmethod
    def run_record(run):
        if not run.ok:
            raise RuntimeError(f"Monte Carlo run {run.seed} failed: "
                               f"{run.error}")
        rec = estimate_record(run.theta, run.n_used, run.iterations,
                              run.pem_cost)
        rec["fit"] = float(run.fit)
        rec["mse"] = float(run.mse)
        return rec

    def check(self, i, rec):
        out = []
        for k, run in enumerate(rec["runs"]):
            cfg = replace(self.loop, seed=self.run_seed(i, k))
            data = simulate.generate(cfg)
            out += estimate_problems(run, data, self.loop.system, BJ_ORDERS,
                                     BJ_ERR_BOUND)
        return out

    def info(self, recs):
        recs = [run for rec in recs for run in rec["runs"]]
        ratio = (np.mean([r["mse"] for r in recs]) * self.loop.N
                 / self.dyn_trace)
        return {"fit_pct": (float(np.mean([r["fit"] for r in recs])), "%"),
                "crb_ratio": (float(ratio), "1"),
                "crb_gap": (float(abs(ratio - 1.0)), "1")}


class OeFast:
    """wnsf_identify on the output-error configuration of criterion 4."""

    name = "oe_fast"
    pool = 32
    pass_ops = 8

    def __init__(self, seed, workdir):
        self.seed = seed
        self.system = fast_oe_system()
        self.options = WnsfOptions(n_grid=(250,), max_iter=100, tol=1e-4)
        self.data = []

    def config(self, k):
        return LoopConfig(system=self.system,
                          controller=RationalFilter(Polynomial([0.03])),
                          noise_std=2.0, N=2000,
                          seed=derive(self.seed, 3, k))

    def setup(self):
        self.data = [simulate.generate(self.config(k))
                     for k in range(self.pool)]

    def op(self, i):
        return estimator.wnsf_identify(self.data[i % self.pool], OE_ORDERS,
                                       self.options)

    def record(self, i, raw):
        return estimate_record(raw.theta, raw.n_used, raw.iterations,
                               raw.pem_cost)

    def check(self, i, rec):
        return estimate_problems(rec, self.data[i % self.pool], self.system,
                                 OE_ORDERS, OE_ERR_BOUND)

    def info(self, recs):
        fits = [metrics.fit_of_models(self.system.G, _model(r, OE_ORDERS).G)
                for r in recs]
        return {"fit_pct": (float(np.mean(fits)), "%")}


class Bound:
    """One bound report: M_CR closed and open (grid 8192), M_CL, and the
    finite-order limit at n = 200 (criteria 3 and 7).  The seed draws the
    controller gain and noise level of each pooled loop; set-up reads each
    loop through the config path of ``wnsf crb``."""

    name = "bound"
    pool = 4
    pass_ops = 4
    grid = 8192
    n = 200

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.models = []

    def setup(self):
        self.models = []
        for k in range(self.pool):
            rng = np.random.default_rng(derive(self.seed, 4, k))
            gain, std = rng.uniform(0.7, 1.3, size=2)
            pair = []
            for kind in ("closed", "open"):
                path = write_config(
                    os.path.join(self.workdir, f"bound_{k}_{kind}.json"),
                    gain=gain, std=std, N=1000, loop_kind=kind)
                cfg = cli.loop_config_from(cli.load_config(path))
                pair.append(crb.SpectrumModel.from_loop_config(cfg))
            self.models.append(pair)

    def op(self, i):
        closed, open_ = self.models[i % self.pool]
        return {
            "mcr_closed": crb.compute_mcr(closed, grid_size=self.grid),
            "mcr_open": crb.compute_mcr(open_, grid_size=self.grid),
            "mcl": crb.compute_mcl(closed, grid_size=self.grid),
            "mbar": crb.mbar_limit(closed, n=self.n, grid_size=self.grid),
        }

    def record(self, i, raw):
        return {
            "mcr_closed_M": raw["mcr_closed"].M.tolist(),
            "mcr_closed_trace": raw["mcr_closed"].dyn_block_trace,
            "mcr_open_M": raw["mcr_open"].M.tolist(),
            "mcr_open_trace": raw["mcr_open"].dyn_block_trace,
            "mcl_M": raw["mcl"].tolist(),
            "mbar_M": raw["mbar"].tolist(),
        }

    def check(self, i, rec):
        out = []
        mats = {k: np.asarray(v) for k, v in rec.items() if k.endswith("_M")}
        for key, M in mats.items():
            if not np.all(np.isfinite(M)) or not np.allclose(M, M.T):
                out.append(f"{key} is not finite and symmetric")
            elif np.linalg.eigvalsh(M)[0] <= 0:
                out.append(f"{key} is not positive definite")
        for key in ("mcr_closed_trace", "mcr_open_trace"):
            if not (math.isfinite(rec[key]) and rec[key] > 0):
                out.append(f"{key} is {rec[key]!r}")
        if out:
            return out
        M_cr = mats["mcr_closed_M"]
        rel = np.linalg.norm(mats["mbar_M"] - M_cr) / np.linalg.norm(M_cr)
        if not rel < 1e-2:
            out.append(f"finite-order information off M_CR by {rel:.2e}")
        # The reference-only bound can only be looser than the full one.
        dyn = BJ_ORDERS.dyn_dim
        gap = (np.linalg.inv(mats["mcl_M"])
               - np.linalg.inv(M_cr)[:dyn, :dyn])
        if np.linalg.eigvalsh(0.5 * (gap + gap.T))[0] < -1e-9:
            out.append("reference-only bound is tighter than M_CR")
        return out

    def info(self, recs):
        return {"closed_trace": (float(np.mean(
            [r["mcr_closed_trace"] for r in recs])), "1")}


def _model(rec, orders):
    return BjModel.from_theta(rec["theta"], orders.m_f, orders.m_l,
                              orders.m_c, orders.m_d)


WORKLOADS = {w.name: w for w in (BjGrid, McClosed, OeFast, Bound)}
