"""Identification of randomly sampled resonant plants in closed loop.

Each draw has three resonant pole pairs in the annulus [0.88, 0.98], a
resonant zero pair, a real zero that may be non-minimum-phase, and a random
second-order noise model.  A small static gain keeps the loop stable for
most draws (unstable combinations are skipped); the noise level is rescaled
per realization so the signal-to-noise ratio is exactly 2.  The ARX order n
and the weighted iteration are selected automatically by prediction-error
cost; FIT quartiles over the campaign are printed.  The campaign runs at
one BLAS thread (``wnsf.blas.single_thread``), so what it prints does not
depend on the core count.
"""

import numpy as np

from wnsf import (
    LoopConfig,
    ModelOrders,
    Polynomial,
    RationalFilter,
    WnsfOptions,
    random_system,
    wnsf_identify,
)
from wnsf.blas import single_thread
from wnsf.estimator import IdentificationError
from wnsf.metrics import fit_of_models
from wnsf.simulate import UnstableLoopError, generate

# Default controller: a small static gain stabilizes most draws from this
# plant family (the resonant peaks limit the usable gain); unstable
# combinations are detected by the sensitivity check and skipped.
CONTROLLER = RationalFilter(Polynomial([0.003]))
ORDERS = ModelOrders(6, 5, 2, 2)
N = 2000
DRAWS = 20


def main():
    rng = np.random.default_rng(0)
    fits, skipped = [], 0
    while len(fits) + skipped < DRAWS:
        system = random_system(rng)
        cfg = LoopConfig(system=system, controller=CONTROLLER,
                         N=N, seed=len(fits) + skipped, snr_target=2.0,
                         loop_kind="closed_ref_through_K")
        try:
            data = generate(cfg)
            est = wnsf_identify(
                data, ORDERS,
                WnsfOptions(n_grid=(50, 100, 150, 200, 250, 300)))
        except (UnstableLoopError, IdentificationError) as exc:
            skipped += 1
            kind = "unstable loop" if isinstance(exc, UnstableLoopError) else "fit failed"
            print(f"  draw skipped ({kind})")
            continue
        fit = fit_of_models(system.G, est.model.G)
        fits.append(fit)
        print(f"  draw {len(fits):2d}: FIT {fit:6.2f} "
              f"(n = {est.n_used}, {est.iterations} iterations)")
    q1, med, q3 = np.percentile(fits, [25, 50, 75])
    print(f"\n{len(fits)} identified, {skipped} skipped; "
          f"FIT quartiles {q1:.1f} / {med:.1f} / {q3:.1f}")


if __name__ == "__main__":
    with single_thread():
        main()
