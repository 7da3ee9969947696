"""qthermal: bounds and simulations for thermal-image channel discrimination.

A thermal image is modelled as a grid of Gaussian phase-insensitive channels
of common transmissivity whose pixels carry background or target noise.  The
library computes ultimate and classical error-probability bounds for
classifying such channel patterns, quantifies the advantage of
entangled-probe strategies, and simulates nearest-neighbour and
convolutional classifiers on binarised images under channel-induced pixel
noise.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    bounds,
    min_rel_probe_additive,
    min_rel_probe_uniform,
    pixel_error_bounds,
)
from .channels import (
    ChannelSpec,
    EnvironmentPair,
    choi_cm,
    fidelity_choi_inf,
    fidelity_choi_inf_extrapolated,
    fidelity_classical,
    fidelity_finite,
    temperature_of,
)
from .classify import (
    AdvantageRow,
    ErrorEstimate,
    NoiseModel,
    SnappFit,
    advantage_regions,
    endpoint_noise_models,
    estimate_error,
    nn_predictor,
    sample_noisy,
    snapp_fit,
)
from .data import (
    BinaryImageDataset,
    binarize,
    load_idx,
    load_idx_split,
    parse_idx,
    synthetic_digits,
    trial_stream,
)
from .gaussian import (
    CovarianceMatrix,
    gaussian_fidelity,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_cm,
    tmsv_cm,
    vacuum_cm,
)
from .spaces import (
    ImageSpace,
    bcpf_functional,
    cpf_functional,
    cross_functional,
    hamming_functional_uniform,
)

__all__ = [
    "AdvantageRow",
    "BinaryImageDataset",
    "BoundReport",
    "ChannelSpec",
    "CovarianceMatrix",
    "EnvironmentPair",
    "ErrorEstimate",
    "ImageSpace",
    "NoiseModel",
    "SnappFit",
    "advantage_regions",
    "bcpf_functional",
    "binarize",
    "bounds",
    "choi_cm",
    "cpf_functional",
    "cross_functional",
    "endpoint_noise_models",
    "estimate_error",
    "fidelity_choi_inf",
    "fidelity_choi_inf_extrapolated",
    "fidelity_classical",
    "fidelity_finite",
    "gaussian_fidelity",
    "hamming_functional_uniform",
    "load_idx",
    "load_idx_split",
    "min_rel_probe_additive",
    "min_rel_probe_uniform",
    "nn_predictor",
    "parse_idx",
    "pixel_error_bounds",
    "sample_noisy",
    "snapp_fit",
    "symplectic_eigenvalues",
    "symplectic_form",
    "synthetic_digits",
    "temperature_of",
    "thermal_cm",
    "tmsv_cm",
    "trial_stream",
    "vacuum_cm",
]
