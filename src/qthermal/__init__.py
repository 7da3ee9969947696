"""qthermal: bounds and simulations for thermal-image channel discrimination.

A thermal image is modelled as a grid of Gaussian phase-insensitive channels
of common transmissivity whose pixels carry background or target noise.  The
library computes ultimate and classical error-probability bounds for
classifying such channel patterns, quantifies the advantage of
entangled-probe strategies, and simulates nearest-neighbour and
convolutional classifiers on binarised images under channel-induced pixel
noise.

The package root holds the names below; every other name is imported from
its module.
"""

__version__ = "0.1.0"

from .bounds import bounds, min_rel_probe_uniform, pixel_error_bounds
from .channels import EnvironmentPair, choi_cm, fidelity_choi_inf, fidelity_classical, fidelity_finite
from .classify import NoiseModel, advantage_regions, estimate_error, nn_predictor, sample_noisy, snapp_fit
from .data import synthetic_digits
from .gaussian import gaussian_fidelity
from .spaces import ImageSpace, bcpf_functional

__all__ = [
    "EnvironmentPair",
    "ImageSpace",
    "NoiseModel",
    "advantage_regions",
    "bcpf_functional",
    "bounds",
    "choi_cm",
    "estimate_error",
    "fidelity_choi_inf",
    "fidelity_classical",
    "fidelity_finite",
    "gaussian_fidelity",
    "min_rel_probe_uniform",
    "nn_predictor",
    "pixel_error_bounds",
    "sample_noisy",
    "snapp_fit",
    "synthetic_digits",
]
