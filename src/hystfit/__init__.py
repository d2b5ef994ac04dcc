"""Hysteresis modeling and identification toolkit.

Builds rate-independent play-operator models (single-stage weighted banks
and a two-bank switched composition for multi-stage dead zones), fits
them to measured input/angle data with a damped least-squares engine, and
scores fits with standard error metrics. A batch CLI wraps the simulate,
generate, fit, and evaluate workflows.
"""

__version__ = "0.1.0"

from .envelopes import Envelope, LinearEnvelope, TanhEnvelope, envelope_from_dict
from .errors import (
    ConfigError,
    DetectionError,
    DomainError,
    HystError,
    InitializationError,
    InputError,
    NumericalError,
    ParameterError,
    RangeError,
)
from .fitting import (
    EGPI_PARAM_NAMES,
    FitConfig,
    FitResult,
    GPI_PARAM_NAMES,
    build_model,
    default_initial_guess,
    jacobian_fd,
    lm_fit,
    param_bounds,
    param_names,
    project_params,
    residuals,
    validate_params,
)
from .metrics import Metrics, compute_metrics
from .operators import (
    DensitySpec,
    EgpiModel,
    GpiModel,
    SwitchMode,
    egpi_eval,
    gpi_eval,
    predict,
    reference_model,
)
from .signals import Trajectory, decaying_sinusoid, detect_flag_point, gen_synthetic

__all__ = [
    "__version__",
    "Envelope",
    "LinearEnvelope",
    "TanhEnvelope",
    "envelope_from_dict",
    "HystError",
    "InputError",
    "ConfigError",
    "DomainError",
    "RangeError",
    "ParameterError",
    "InitializationError",
    "DetectionError",
    "NumericalError",
    "DensitySpec",
    "GpiModel",
    "EgpiModel",
    "SwitchMode",
    "gpi_eval",
    "egpi_eval",
    "predict",
    "reference_model",
    "Trajectory",
    "decaying_sinusoid",
    "detect_flag_point",
    "gen_synthetic",
    "Metrics",
    "compute_metrics",
    "EGPI_PARAM_NAMES",
    "GPI_PARAM_NAMES",
    "FitConfig",
    "FitResult",
    "param_names",
    "param_bounds",
    "validate_params",
    "project_params",
    "build_model",
    "residuals",
    "jacobian_fd",
    "default_initial_guess",
    "lm_fit",
]
