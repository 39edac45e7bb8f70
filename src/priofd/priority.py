"""Communication priority quantization.

Priorities computed in round k decide who transmits in round k+2, so the
triggering scores the error predicted two rounds ahead
(RunTrace.raw_priorities, computed by simulate.run_single). With the default identity weight the
raw priority equals ||Atilde^2 e(k)||^2, the quadratic form of the current
error under ((A+BF_ii)')^2 (A+BF_ii)^2.

The 8-bit wire value is a saturating floor quantizer; the scale is a
deployment constant fitted during calibration (99.9th percentile of
fault-free raw priorities maps below 200, keeping headroom for faults) and
must match between config and threshold table.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

QUANT_MAX = 255
SCALE_HEADROOM_TARGET = 200
SCALE_FIT_PERCENTILE = 0.999   # fault-free level mapped to the target


def quantize_batch(raw: np.ndarray, scale: float) -> np.ndarray:
    """Elementwise min(255, floor(raw / scale)), 0 for raw <= 0; monotone
    and saturating."""
    if scale <= 0:
        raise ConfigError(f"quantization scale must be positive, got {scale}")
    q = np.floor(np.maximum(raw, 0.0) / scale)
    return np.minimum(q, QUANT_MAX).astype(np.int64)
