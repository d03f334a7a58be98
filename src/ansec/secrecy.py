"""Closed-form secrecy rates for artificial-noise beamforming.

Model: a transmitter with na antennas sends one information stream to a
single-antenna receiver (Bob) over an iid Rayleigh channel, beamforming
along its channel estimate, and fills the remaining na-1 spatial
dimensions with artificial noise. A fraction phi of the total power p
drives the information stream; the rest is spread over the noise
directions. Eavesdroppers (Eve, ne of them, colluding) see the same
transmit signal through independent Rayleigh channels and are assumed
noise-free, so only the artificial noise limits their SINR. All powers
are linear (not dB) and all rates are in bits per channel use.

The ergodic secrecy rate reported here is the clamped difference
max(C_bob - C_eve, 0): C_bob is Bob's ergodic capacity and C_eve is the
eavesdroppers' ergodic capacity, which is independent of p in the
noise-free-Eve model because signal and interference scale together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import specfun

LN2 = math.log(2.0)
_SERIES_LIMIT = 0.99  # expansion-ratio bound for the single-eavesdropper series


def _is_int(value: object) -> bool:
    # An integer count; bool subclasses int but True is not a count.
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts: na transmit antennas, ne single-antenna eavesdroppers.

    Secrecy requires strictly more noise dimensions than eavesdropper
    antennas, so na > ne is enforced here.
    """

    na: int
    ne: int = 1

    def __post_init__(self) -> None:
        if not _is_int(self.na) or self.na < 2:
            raise ValueError(f"na must be an integer >= 2, got {self.na!r}")
        if not _is_int(self.ne) or self.ne < 1:
            raise ValueError(f"ne must be an integer >= 1, got {self.ne!r}")
        if self.na <= self.ne:
            raise ValueError(
                f"need more transmit antennas than eavesdroppers, got na={self.na}, ne={self.ne}"
            )


@dataclass(frozen=True)
class PowerSplit:
    """Fraction phi of total power assigned to the information stream.

    The complementary z = 1/phi > 1 is the natural variable of the
    closed forms; it is exposed as a property so phi * z == 1 holds to
    rounding.
    """

    phi: float

    def __post_init__(self) -> None:
        if not 0.0 < self.phi < 1.0:
            raise ValueError(f"phi must lie strictly inside (0, 1), got {self.phi!r}")

    @classmethod
    def from_z(cls, z: float) -> "PowerSplit":
        if not z > 1.0:
            raise ValueError(f"z = 1/phi must exceed 1, got {z!r}")
        return cls(1.0 / z)

    @property
    def z(self) -> float:
        return 1.0 / self.phi

    def sigma_u2(self, p: float) -> float:
        """Per-symbol information power."""
        return self.phi * p

    def sigma_v2(self, p: float, na: int) -> float:
        """Per-dimension artificial-noise power across the na-1 null directions."""
        return (1.0 - self.phi) * p / (na - 1)


@dataclass(frozen=True)
class CsiError:
    """Channel-estimation error: sigma_tilde2 is the per-entry error variance.

    The channel decomposes into an estimate of variance 1 - sigma_tilde2
    plus an independent error of variance sigma_tilde2; 0 means perfect
    knowledge and values approaching 1 mean the estimate is useless.
    """

    sigma_tilde2: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma_tilde2 < 1.0:
            raise ValueError(
                f"sigma_tilde2 must lie in [0, 1), got {self.sigma_tilde2!r}"
            )

    @property
    def sigma_hat2(self) -> float:
        return 1.0 - self.sigma_tilde2


@dataclass(frozen=True)
class RateReport:
    """A secrecy-rate evaluation: both capacities and their clamped gap."""

    c1: float
    c2: float
    c: float
    source: str = "closed-form"
    stderr: Optional[float] = None


def capacity_bob(cfg: SystemConfig, p: float, split: PowerSplit) -> float:
    """Bob's ergodic capacity E[log2(1 + phi * p * |h|^2)] in bits/use.

    |h|^2 is chi-squared with 2*na degrees of freedom (unit-variance
    entries), which integrates to a finite sum of exponential integrals;
    the exponentially scaled form keeps it finite as phi * p -> 0.
    """
    if not p > 0:
        raise ValueError(f"power must be positive, got {p!r}")
    return specfun.scaled_expint_sum(cfg.na, split.z / p) / LN2


def capacity_bob_imperfect(
    cfg: SystemConfig, p: float, split: PowerSplit, err: CsiError
) -> float:
    """Bob's ergodic capacity when beamforming on an imperfect estimate.

    The estimation error leaks a fraction of the information power into
    an effective self-interference floor, which rescales the integral
    argument from z/p to z * (sigma_tilde2 + 1/p) / (1 - sigma_tilde2).
    With sigma_tilde2 = 0 this reduces bit-for-bit to capacity_bob.
    """
    if not p > 0:
        raise ValueError(f"power must be positive, got {p!r}")
    w = split.z * (err.sigma_tilde2 + 1.0 / p) / err.sigma_hat2
    return specfun.scaled_expint_sum(cfg.na, w) / LN2


def ccdf_sir(x: float, cfg: SystemConfig) -> float:
    """P(X > x) for the eavesdroppers' combined signal-to-interference ratio
    at unit power ratio (information power == per-dimension noise power).

    Equals (sum_{k<ne} C(na-1, k) x^k) / (1+x)^{na-1}. Factored as
    products of ratios <= 1 so no intermediate power overflows.
    """
    if x < 0:
        raise ValueError(f"the SIR is nonnegative, got x={x}")
    if math.isinf(x):
        return 0.0
    r = x / (1.0 + x)
    q = 1.0 / (1.0 + x)
    total = 0.0
    for k in range(cfg.ne):
        total += math.comb(cfg.na - 1, k) * r ** k * q ** (cfg.na - 1 - k)
    return total


def _eve_nats_single(na: int, z: float) -> float:
    # Single eavesdropper, capacity in nats. With u = (na - z)/(na - 1):
    #   series: sum_{m>=0} u^m / (na - 1 + m), smooth through z = na;
    #   closed: u^{-(na-1)} (ln((na-1)/(z-1)) - sum_{l<na-1} u^l / l),
    # regrouped so only nonpositive powers of u appear when |u| > 1.
    a = na - 1
    u = (na - z) / a
    if abs(u) <= _SERIES_LIMIT:
        total = 0.0
        term = 1.0
        m = 0
        while True:
            contrib = term / (a + m)
            total += contrib
            term *= u
            m += 1
            if abs(term) / (a + m) <= 1e-18 * abs(total):
                return total
            if m > 200_000:
                raise RuntimeError(f"series failed to converge for na={na}, z={z}")
    log_part = math.log(a / (z - 1.0)) * u ** (1 - a)
    partial = 0.0
    for l in range(1, a):
        partial += u ** (l + 1 - a) / l
    return (log_part - partial) / u


def _eve_nats_general(na: int, ne: int, z: float) -> float:
    # Colluding eavesdroppers, capacity in nats: one hypergeometric term
    # per order statistic of the interference-whitened channel.
    x = (z - na) / (z - 1.0)
    scale = (na - 1.0) / (z - 1.0)
    total = 0.0
    for k in range(ne):
        total += (
            math.comb(na - 1, k)
            * scale
            * specfun.beta_int(k + 1, na - 1 - k)
            * specfun.hyp2f1_1b_c(k + 1, na, x)
        )
    return total


def capacity_eve(cfg: SystemConfig, split: PowerSplit) -> float:
    """Eavesdroppers' ergodic capacity in bits/use; independent of total power.

    Noise-free eavesdroppers see SIR = (information power / per-dimension
    noise power) * X with X a fixed channel statistic, and the power
    ratio (na-1)/(z-1) carries the whole phi dependence. ne = 1 takes a
    dedicated logarithmic route; ne > 1 sums hypergeometric terms. A
    degenerate split with z <= 1 yields inf rather than an error, so
    optimizers may probe the boundary.
    """
    z = split.z
    if z <= 1.0:
        return math.inf
    if cfg.ne == 1:
        return _eve_nats_single(cfg.na, z) / LN2
    return _eve_nats_general(cfg.na, cfg.ne, z) / LN2


def secrecy_rate(cfg: SystemConfig, p: float, split: PowerSplit) -> RateReport:
    """Ergodic secrecy rate max(C_bob - C_eve, 0) with its two components."""
    c1 = capacity_bob(cfg, p, split)
    c2 = capacity_eve(cfg, split)
    return RateReport(c1=c1, c2=c2, c=max(c1 - c2, 0.0))


def secrecy_rate_imperfect(
    cfg: SystemConfig, p: float, split: PowerSplit, err: CsiError
) -> RateReport:
    """Secrecy rate with imperfect channel knowledge at the transmitter.

    Only Bob's side degrades; the eavesdropper term is unchanged because
    the artificial noise is isotropic in the estimated null space and the
    eavesdropper channels are independent of the estimation error.
    """
    c1 = capacity_bob_imperfect(cfg, p, split, err)
    c2 = capacity_eve(cfg, split)
    return RateReport(c1=c1, c2=c2, c=max(c1 - c2, 0.0))


def secrecy_rate_large_na(cfg: SystemConfig, p: float, split: PowerSplit) -> float:
    """Many-antenna limit of the secrecy rate in bits/use.

    For na >> 1, Bob's capacity concentrates at log2(na * p / z) and the
    eavesdropper term tends to (1/ln 2) e^{z-1} sum_{k<=ne} E_k(z-1).
    Useful as a sanity limit; the gap to the exact rate shrinks as na grows.
    """
    if not p > 0:
        raise ValueError(f"power must be positive, got {p!r}")
    z = split.z
    nats = math.log(cfg.na * p / z) - specfun.scaled_expint_sum(cfg.ne, z - 1.0)
    return max(nats / LN2, 0.0)
