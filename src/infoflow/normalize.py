"""Per-target normalization of information flows.

Each target node i has its own normalizer

    Z_i = |self_influence_i| + sum_{j != i} |T[j -> i]| + noise_rate_i,

the total (absolute) budget of its marginal entropy rate.  The
normalized flow tau[j -> i] = T[j -> i] / Z_i lies in [-1, 1] and
measures the relative importance of a cause.  tau is reported
alongside T, never instead of it: significance always comes from the
unnormalized estimate and its CI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNormalizerError


@dataclass(frozen=True)
class NormalizedFlows:
    """Normalized inflows of every target node.

    ``tau[j, i]`` is tau[j -> i] (zero on the diagonal).  ``Z``,
    ``self_share`` and ``noise_share`` are per target: the normalizer and
    the fractions of it due to self-influence and noise, so that
    self_share[i] + noise_share[i] + sum_j |tau[j, i]| = 1.
    """

    Z: np.ndarray
    tau: np.ndarray
    self_share: np.ndarray
    noise_share: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            value.flags.writeable = False


def normalize_flows(T, self_influence, noise_rate) -> NormalizedFlows:
    """Normalize a d x d flow matrix ``T[source, target]`` per target.

    The diagonal of ``T`` must be zero: self-influence is passed
    separately, as are the noise rates (both of length d).
    """
    T = np.asarray(T, dtype=float)
    self_abs = np.abs(np.asarray(self_influence, dtype=float))
    noise = np.asarray(noise_rate, dtype=float)
    d = len(self_abs)
    if T.shape != (d, d) or self_abs.shape != (d,) or noise.shape != (d,):
        raise ValueError(
            f"need a d x d flow matrix and two length-d vectors, got shapes "
            f"{T.shape}, {self_abs.shape} and {noise.shape}"
        )
    if np.any(np.diag(T) != 0.0):
        raise ValueError("diagonal of the flow matrix must be zero: "
                         "self-influence is passed separately")
    Z = self_abs + np.abs(T).sum(axis=0) + noise
    zero = np.flatnonzero(~(Z > 0.0))
    if zero.size:
        raise DegenerateNormalizerError(
            f"target {zero[0]}: all entropy contributions are zero"
        )
    return NormalizedFlows(Z=Z, tau=T / Z, self_share=self_abs / Z, noise_share=noise / Z)
