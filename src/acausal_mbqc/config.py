"""Shared numeric tolerances, register-size caps, the default seed, and the
int check of counts and seeds."""

from __future__ import annotations

import os

import numpy as np

# Absolute tolerances used across the package.
HERMITIAN_ATOL = 1e-10        # allowed ||M - M^dag||_max of a HermOp
NORM_ATOL = 1e-12             # allowed |norm - 1| for physical state vectors
BASIS_ORTHO_ATOL = 1e-10      # allowed overlap between measurement basis kets
MIN_FORCE_PROBABILITY = 1e-14 # forcing an outcome below this branch weight is an error

# Outcome-table entries in [-slack, 0) are clamped to zero (and counted once
# each); any entry outside [-slack, 1 + slack] errors.
PROBABILITY_RANGE_SLACK = 1e-8

# Dense register-size limits. The cap bounds state vectors (2^cap amplitudes);
# dense operator materialization is additionally bounded because it squares the size.
DEFAULT_QUBIT_CAP = 14
DENSE_OPERATOR_CAP = 12
CAP_ENV_VAR = "ACAUSAL_MBQC_CAP"

# Every CLI report and seeded test defaults to this seed so runs are reproducible.
DEFAULT_SEED = 123456789


def is_int(value) -> bool:
    """True for a Python or numpy int, and False for a bool: the check each
    library count (shots, trials) and seed passes before any work."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class RegisterCapError(RuntimeError):
    """Raised when an operation would exceed the register-size cap."""


def qubit_cap(override: int | None = None) -> int:
    """Effective qubit cap on state vectors: explicit override, else env var, else default."""
    if override is not None:
        cap, source = int(override), "qubit cap"
    else:
        raw = os.environ.get(CAP_ENV_VAR)
        if raw is None:
            return DEFAULT_QUBIT_CAP
        try:
            cap, source = int(raw), CAP_ENV_VAR
        except ValueError as exc:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{source} must be >= 1, got {cap}")
    return cap
