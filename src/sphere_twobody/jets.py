"""The scaled-residual rule for equations checked term by term."""

import math

__all__ = ["scaled_residual"]


def scaled_residual(*terms):
    """|sum of terms| over the largest |term|, no floor: NaN stays NaN, all-zero reads inf."""
    res = abs(sum(terms))
    if math.isnan(res):  # max() over the terms alone can drop a NaN
        return res
    scale = max(map(abs, terms))
    return res / scale if scale > 0.0 else math.inf
