"""Channel instance definition for K-user degraded Gaussian multiaccess relay
channels: source powers, relay power, the two noise variances, and the scalar
AWGN capacity function of the closed-form sum rates. The bound tables use its
elementwise form, bounds._rates."""

import math
from dataclasses import dataclass, field

import numpy as np

# Tiny negative SNR arguments are cancellation dust from the relay sum-SNR
# form bounds.relay_sum_snr, which the relay-cut-sumstat chord check of the
# verify command evaluates; anything below this is a formula bug. The
# equalizer passes K_3 itself (Bottleneck) or the destination sum SNR, a sum
# of positive terms. The bound tables judge their own dust relative to power
# (bounds._rates).
SNR_CLAMP = -1e-12


class ValidationError(ValueError):
    """A channel config field violates the model constraints."""


def awgn_capacity(snr):
    """Capacity of a scalar AWGN channel, 0.5*log2(1+snr) bits/channel use."""
    if snr < 0.0:
        if snr < SNR_CLAMP:
            raise ValueError(f"negative SNR argument {snr!r}")
        snr = 0.0
    return 0.5 * math.log2(1.0 + snr)


def _check_field(name, value, in_range, want):
    # The range test comes first and fails on NaN; +inf passes it.
    if not in_range:
        raise ValidationError(f"{name} must be {want}, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ChannelConfig:
    """A degraded Gaussian multiaccess relay channel.

    K sources with powers P transmit to a destination aided by one relay.
    The relay sees noise variance N_r; the destination sees the relay's
    observation further degraded by independent noise of variance N_delta,
    so its total noise variance is N_d = N_r + N_delta.
    """

    K: int
    P: tuple
    P_r: float
    N_r: float
    N_delta: float
    P_max: float = field(init=False)
    lam: tuple = field(init=False)

    def __post_init__(self):
        if isinstance(self.K, bool) or not isinstance(self.K, int) or self.K < 1:
            raise ValidationError(f"K must be a positive integer, got {self.K!r}")
        P = tuple(float(p) for p in self.P)
        if len(P) != self.K:
            raise ValidationError(f"P has {len(P)} entries, expected K={self.K}")
        for k, p in enumerate(P):
            _check_field(f"P[{k + 1}]", p, p > 0.0, "positive")
        _check_field("P_r", self.P_r, self.P_r > 0.0, "positive")
        _check_field("N_r", self.N_r, self.N_r > 0.0, "positive")
        _check_field("N_delta", self.N_delta, self.N_delta >= 0.0, "nonnegative")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "P_r", float(self.P_r))
        object.__setattr__(self, "N_r", float(self.N_r))
        object.__setattr__(self, "N_delta", float(self.N_delta))
        p_max = max(P)
        object.__setattr__(self, "P_max", p_max)
        object.__setattr__(self, "lam", tuple(p / p_max for p in P))

    @property
    def N_d(self):
        return self.N_r + self.N_delta

    def powers(self):
        """Source powers as a numpy vector."""
        return np.asarray(self.P, dtype=np.float64)

    def lam_vector(self):
        """Powers normalized by the largest one, as a numpy vector."""
        return np.asarray(self.lam, dtype=np.float64)

