"""How fast the weighted re-estimation converges for an output-error model.

A third-order plant with fast poles and a non-minimum-phase zero is operated
in closed loop with a small static gain.  Starting from the unweighted
reduction, each weighted pass re-uses the latest estimate in the weighting;
the average impulse-response FIT is printed per iteration.
"""

import numpy as np

from wnsf import BjModel, LoopConfig, ModelOrders, Polynomial, RationalFilter
from wnsf.arx import estimate_arx
from wnsf.estimator import step2_ls, step3_wls_oe
from wnsf.metrics import fit_of_models
from wnsf.simulate import generate

SYSTEM = BjModel(
    L=Polynomial([0.0, 1.0, -1.2]),
    F=Polynomial([1.0, -2.5, 2.4, -0.88]),
)
CONTROLLER = RationalFilter(Polynomial([0.03]))
ORDERS = ModelOrders(3, 2)
SEEDS = 25
ITERATIONS = 5


def main():
    fits = np.zeros((SEEDS, ITERATIONS + 1))
    for seed in range(SEEDS):
        cfg = LoopConfig(system=SYSTEM, controller=CONTROLLER, noise_std=2.0,
                         N=2000, seed=seed)
        arx = estimate_arx(generate(cfg), n=250)
        theta = step2_ls(arx, ORDERS).theta
        fits[seed, 0] = fit_of_models(
            SYSTEM.G, BjModel.from_theta(theta, 3, 2).G)
        for it in range(1, ITERATIONS + 1):
            theta = step3_wls_oe(arx, theta, ORDERS).theta
            fits[seed, it] = fit_of_models(
                SYSTEM.G, BjModel.from_theta(theta, 3, 2).G)
    print(f"average FIT over {SEEDS} seeds (iteration 0 = unweighted step):")
    for it in range(ITERATIONS + 1):
        print(f"  iteration {it}: {np.mean(fits[:, it]):6.2f}")


if __name__ == "__main__":
    main()
