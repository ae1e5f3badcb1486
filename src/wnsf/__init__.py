"""Weighted null-space fitting for SISO Box-Jenkins identification."""

from .arx import ArxEstimate, build_regressors, estimate_arx, true_eta
from .crb import (
    CrbResult,
    SpectrumModel,
    compute_mcl,
    compute_mcr,
    mbar_limit,
    phi_z,
)
from .estimator import (
    ModelOrders,
    ThetaEstimate,
    WnsfOptions,
    build_Q,
    build_T,
    pem_cost,
    step2_ls,
    step3_wls,
    step3_wls_oe,
    wnsf_identify,
)
from .lti import (
    BjModel,
    Polynomial,
    RationalFilter,
    filter_signal,
    freq_response,
    impulse_response,
    is_stable,
    poly_mul,
    toeplitz_matrix,
)
from .metrics import (
    McExperiment,
    McResult,
    fit_metric,
    fit_of_models,
    mse_metric,
    run_monte_carlo,
)
from .simulate import (
    DataSet,
    LoopConfig,
    RandomSystemSpec,
    generate,
    random_system,
    reference_path,
    scale_noise_to_snr,
)

__version__ = "0.1.0"
