"""Quality metrics and the seeded Monte Carlo experiment runner."""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .estimator import IdentificationError, ModelOrders, WnsfOptions, wnsf_identify
from .lti import BjModel, RationalFilter, impulse_response
from .simulate import LoopConfig, UnstableLoopError, _integer, generate

IMPULSE_BLOCK = 64
IMPULSE_CAP = 8192


def adaptive_impulse_length(f: RationalFilter, rel_tol: float = 1e-12,
                            cap: int = IMPULSE_CAP) -> int:
    """Grow the response in blocks until a block carries less than rel_tol of
    the cumulative energy."""
    length = IMPULSE_BLOCK
    while length < cap:
        g = impulse_response(f, length)
        total = float(np.sum(g**2))
        tail = float(np.sum(g[-IMPULSE_BLOCK:] ** 2))
        if total > 0 and tail <= rel_tol * total:
            return length
        length += IMPULSE_BLOCK
    return cap


def fit_metric(g_true: np.ndarray, g_est: np.ndarray) -> float:
    """FIT = 100 (1 - ||g_o - g_hat|| / ||g_o - mean(g_o)||), in percent."""
    g_true = np.asarray(g_true, dtype=float)
    g_est = np.asarray(g_est, dtype=float)
    if len(g_true) != len(g_est):
        raise ValueError("impulse responses must have equal length")
    denom = np.linalg.norm(g_true - np.mean(g_true))
    if denom == 0.0:
        raise ZeroDivisionError("true response is constant; FIT undefined")
    return 100.0 * (1.0 - np.linalg.norm(g_true - g_est) / denom)


def fit_of_models(g_true: RationalFilter, g_est: RationalFilter) -> float:
    """FIT between two plant impulse responses, with the length chosen so the
    truncated tails are negligible for both."""
    length = max(adaptive_impulse_length(g_true), adaptive_impulse_length(g_est))
    return fit_metric(impulse_response(g_true, length),
                      impulse_response(g_est, length))


def mse_metric(theta_hat: np.ndarray, theta_o: np.ndarray) -> float:
    """Squared error between two parameter vectors."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_o = np.asarray(theta_o, dtype=float)
    if len(theta_hat) != len(theta_o):
        raise ValueError("parameter vectors must have equal length")
    return float(np.sum((theta_hat - theta_o) ** 2))


@dataclass(frozen=True)
class McExperiment:
    loop: LoopConfig
    orders: ModelOrders
    options: WnsfOptions = WnsfOptions()
    base_seed: int = 0


@dataclass
class McRun:
    seed: int
    ok: bool
    theta: Optional[np.ndarray] = None
    n_used: Optional[int] = None
    iterations: Optional[int] = None
    pem_cost: Optional[float] = None
    fit: Optional[float] = None
    mse: Optional[float] = None
    error: Optional[str] = None


@dataclass
class McResult:
    runs: List[McRun]
    failures: int
    base_seed: int

    def _vals(self, attr):
        return np.array([getattr(r, attr) for r in self.runs if r.ok])

    def aggregate(self) -> dict:
        out = {"runs": len(self.runs), "failures": self.failures,
               "base_seed": self.base_seed}
        for name in ("fit", "mse"):
            v = self._vals(name)
            if v.size:
                q1, med, q3 = np.percentile(v, [25, 50, 75])
                out[name] = {
                    "mean": float(np.mean(v)),
                    "median": float(med),
                    "q1": float(q1),
                    "q3": float(q3),
                }
        return out

    def thetas(self) -> np.ndarray:
        return np.vstack([r.theta for r in self.runs if r.ok])

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["seed", "n_used", "iterations", "pem_cost", "fit",
                          "mse", "error"])
            for r in self.runs:
                if r.ok:
                    out.writerow([r.seed, r.n_used, r.iterations,
                                  f"{r.pem_cost:.17g}", f"{r.fit:.17g}",
                                  f"{r.mse:.17g}", ""])
                else:
                    out.writerow([r.seed, "", "", "", "", "", r.error])


# What one run can raise on its own data: an infeasible loop or noise scaling
# from ``generate``, a failed identification, or an undefined FIT.
_RUN_ERRORS = (IdentificationError, UnstableLoopError, ZeroDivisionError,
               np.linalg.LinAlgError, ValueError)


def _single_run(exp: McExperiment, seed: int) -> McRun:
    cfg = replace(exp.loop, seed=seed)
    try:
        data = generate(cfg)
        est = wnsf_identify(data, exp.orders, exp.options)
        fit = fit_of_models(cfg.system.G, est.model.G)
    except _RUN_ERRORS as exc:
        return McRun(seed=seed, ok=False, error=f"{type(exc).__name__}: {exc}")
    mse = mse_metric(est.theta[:exp.orders.dyn_dim],
                     _true_dynamics(cfg.system, exp.orders))
    return McRun(seed=seed, ok=True, theta=est.theta, n_used=est.n_used,
                 iterations=est.iterations, pem_cost=est.pem_cost,
                 fit=fit, mse=mse)


def _true_dynamics(system: BjModel, orders: ModelOrders) -> np.ndarray:
    """The true F and L blocks of theta, each cut or zero-padded to the
    estimated order."""
    blocks = ((system.F.coeffs[1:], orders.m_f),
              (system.L.coeffs[1:], orders.m_l))
    return np.concatenate([np.pad(c[:m], (0, m - len(c[:m])))
                           for c, m in blocks])


def run_monte_carlo(exp: McExperiment, runs: int,
                    parallelism: int = 1) -> McResult:
    """Run ``runs`` independent identifications with seeds base_seed + k.

    The aggregate is a deterministic function of the config regardless of
    execution order or parallelism.  A pool has at most one worker per run
    (under ``fork`` all start at the first submit) and gets the runs in
    chunks, about four per worker (as ``multiprocessing.Pool.map``), so a
    run of a few milliseconds does not pay a round trip to a worker alone.
    """
    runs = _integer(runs, "runs", 1)
    parallelism = _integer(parallelism, "parallelism", 1)
    seeds = [exp.base_seed + k for k in range(runs)]
    workers = min(parallelism, runs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = -(-runs // (4 * workers))
            results = list(pool.map(_single_run, [exp] * runs, seeds,
                                    chunksize=chunksize))
    else:
        results = [_single_run(exp, s) for s in seeds]
    results.sort(key=lambda r: r.seed)
    failures = sum(1 for r in results if not r.ok)
    return McResult(runs=results, failures=failures, base_seed=exp.base_seed)
