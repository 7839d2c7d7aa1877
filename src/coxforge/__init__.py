"""Spatial modeling of accidental marks on shoe outsoles.

Pipeline: scanned prints are cropped, mirrored to a common orientation,
coarsened to a grid, and thresholded; accidental locations are binned to
the same grid. A latent Gaussian Cox model with per-shoe effects,
contact-surface interactions, and smooth spatial fields is fit by a
Laplace-approximation scheme, and fitted models are compared by held-out
predictive scoring under cross-validation.
"""

from .design import ModelSpec, builtin_specs, get_spec, index_from_string, index_to_string
from .errors import ConfigError, CoxforgeError, InputDataError, NumericError
from .gmrf import besag_precision, log_gen_det, sample_constrained
from .gradient import fft_convolve2d, sobel_magnitude
from .grids import (
    GridSpec,
    RawImage,
    ShoeRecord,
    bin_accidentals,
    binarize,
    coarsen,
    crop_reflect,
    make_record,
    otsu_threshold,
    surface_record,
)
from .inference import FitResult, GridConfig, ModeResult, find_mode, fit
from .metrics import fold_gain, median_loss_ratio, shoe_metric, uniform_metric
from .model import PriorSpec, ShoeModel, precision_names
from .predict import (
    PredictiveField,
    factorized_log_prob,
    log_multinomial,
    poisson_marginal,
    predictive_q,
)
from .crossval import FoldPlan, make_folds, run_cv
from .simulate import SimConfig, gen_contact, gen_dataset

__version__ = "0.1.0"

__all__ = [
    "ModelSpec", "builtin_specs", "get_spec", "index_from_string", "index_to_string",
    "ConfigError", "CoxforgeError", "InputDataError", "NumericError",
    "besag_precision", "log_gen_det", "sample_constrained",
    "fft_convolve2d", "sobel_magnitude",
    "GridSpec", "RawImage", "ShoeRecord", "bin_accidentals", "binarize",
    "coarsen", "crop_reflect", "make_record", "otsu_threshold", "surface_record",
    "FitResult", "GridConfig", "ModeResult", "find_mode", "fit",
    "fold_gain", "median_loss_ratio", "shoe_metric", "uniform_metric",
    "PriorSpec", "ShoeModel", "precision_names",
    "PredictiveField", "factorized_log_prob", "log_multinomial", "poisson_marginal",
    "predictive_q",
    "FoldPlan", "make_folds", "run_cv",
    "SimConfig", "gen_contact", "gen_dataset",
    "__version__",
]
