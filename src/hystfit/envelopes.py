"""Monotone envelope functions bounding play-operator branches.

Two closed families: affine (``LinearEnvelope``) and scaled/shifted
hyperbolic tangent (``TanhEnvelope``). Both are strictly increasing by
construction, which keeps the operator branches monotone; the bank
evaluation in ``operators`` relies on that holding in floating point
too. Instances are immutable and safe to share between evaluation
contexts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_number


@dataclass(frozen=True)
class LinearEnvelope:
    """gamma(v) = a*v + b with slope a > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ConfigError("linear envelope parameters must be finite")
        if self.a <= 0:
            raise ConfigError(f"linear envelope requires slope a > 0, got a={self.a}")

    def __call__(self, v):
        return self.a * v + self.b

    def to_dict(self):
        return {"family": "linear", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class TanhEnvelope:
    """gamma(v) = c*tanh(d*v + e) + f with c > 0 and d > 0.

    Range is the open interval (f - c, f + c).
    """

    c: float
    d: float
    e: float
    f: float

    def __post_init__(self):
        vals = (self.c, self.d, self.e, self.f)
        if not all(np.isfinite(x) for x in vals):
            raise ConfigError("tanh envelope parameters must be finite")
        if self.c <= 0 or self.d <= 0:
            raise ConfigError(
                f"tanh envelope requires c > 0 and d > 0, got c={self.c}, d={self.d}"
            )

    def __call__(self, v):
        return self.c * np.tanh(self.d * v + self.e) + self.f

    def to_dict(self):
        return {"family": "tanh", "c": self.c, "d": self.d, "e": self.e, "f": self.f}


Envelope = LinearEnvelope | TanhEnvelope


def envelope_from_dict(doc: dict) -> Envelope:
    """Build an envelope from its serialized form."""
    try:
        family = doc["family"]
    except (TypeError, KeyError):
        raise ConfigError(f"envelope document missing 'family': {doc!r}") from None
    if family == "linear":
        cls, keys = LinearEnvelope, "ab"
    elif family == "tanh":
        cls, keys = TanhEnvelope, "cdef"
    else:
        raise ConfigError(f"unknown envelope family {family!r}")
    try:
        return cls(*(float(check_number(doc[k], f"{family} envelope field {k!r}")) for k in keys))
    except KeyError as exc:
        raise ConfigError(f"envelope document missing field {exc}") from None
