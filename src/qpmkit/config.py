"""Numeric defaults shared by the library, the CLI and the tests.

All tolerances live in this one block.  The CLI additionally honours the
``QPMKIT_CONFIG`` environment variable (a path to a JSON object whose keys
match the field names below) and per-invocation ``--tol-*`` flags, applied
in that order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os


@dataclasses.dataclass(frozen=True)
class Config:
    hermitian_tol: float = 1e-9      # entrywise self-adjointness slack
    psd_tol: float = 1e-9            # smallest admissible eigenvalue
    trace_tol: float = 1e-9          # |tr - 1| slack for densities
    recon_tol: float = 1e-8          # spectral / subspace reconstruction error
    unitary_tol: float = 1e-9        # Frobenius distance of U U* from I
    eval_tol: float = 1e-9           # process-axiom slack
    rank_eps: float = 1e-8           # relative singular-value cutoff
    equiv_tol: float = 1e-9          # word-probability agreement for equivalence
    residual_tol: float = 1e-8       # least-squares residual for row-basis fits
    clamp_tol: float = 1e-9          # negative branch probabilities clamped to 0
    preserve_tol: float = 1e-10      # per-basis-element trace preservation
    stationarity_tol: float = 1e-7   # residual of the fixed-point equation
    qpm_horizon: int = 6             # exhaustive word-check horizon

    def replace(self, **overrides) -> "Config":
        return dataclasses.replace(self, **overrides)


DEFAULTS = Config()

ENV_VAR = "QPMKIT_CONFIG"

_FIELD_NAMES = {f.name for f in dataclasses.fields(Config)}


def load_config(environ=None) -> Config:
    """Return the default config with ``QPMKIT_CONFIG`` overrides applied."""
    environ = os.environ if environ is None else environ
    path = environ.get(ENV_VAR)
    if not path:
        return DEFAULTS
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{ENV_VAR} must point at a JSON object")
    unknown = set(data) - _FIELD_NAMES
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    non_finite = sorted(
        key for key, value in data.items() if isinstance(value, float) and not math.isfinite(value)
    )
    if non_finite:
        raise ValueError(f"non-finite config values: {non_finite}")
    values = {}
    for key, value in data.items():
        if key == "qpm_horizon":
            if type(value) is not int or value < 0:
                raise ValueError(f"qpm_horizon must be an integer >= 0, got {value!r}")
            values[key] = value
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
            raise ValueError(f"{key} must be a finite number >= 0, got {value!r}")
        try:  # a JSON integer such as 0 sets a float field as 0.0, as its --tol-* flag does
            values[key] = float(value)
        except OverflowError:
            raise ValueError(
                f"{key} must be a finite number >= 0, got an integer beyond the double range"
            ) from None
    return DEFAULTS.replace(**values)
