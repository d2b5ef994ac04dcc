"""Error metrics comparing model output against measured angles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, warn_caller


@dataclass(frozen=True)
class Metrics:
    """Fit-quality summary.

    ``mae`` is the MAXIMUM absolute error, not the mean; the name follows
    the usual reporting convention for this model family despite the
    collision. ``nrmse`` is rmse as a percentage of the measured range and
    is None when the measured sequence is constant.
    """

    rmse: float
    nrmse: float | None
    mae: float
    n: int

    def to_dict(self):
        return {"rmse": self.rmse, "nrmse": self.nrmse, "mae": self.mae, "n": self.n}


def compute_metrics(measured, predicted) -> Metrics:
    """RMSE, range-normalized RMSE (percent), and maximum absolute error."""
    measured = np.asarray(measured, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if measured.ndim != 1 or measured.shape != predicted.shape:
        raise InputError("measured and predicted must be 1-d arrays of equal length")
    if measured.size == 0:
        raise InputError("metrics need at least one sample")
    err = predicted - measured
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.max(np.abs(err)))
    span = float(np.max(measured) - np.min(measured))
    if span > 0:
        nrmse = 100.0 * rmse / span
    else:
        warn_caller("measured sequence is constant; NRMSE undefined")
        nrmse = None
    return Metrics(rmse=rmse, nrmse=nrmse, mae=mae, n=int(measured.size))
