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
from .specfun import _is_int

LN2 = math.log(2.0)


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


def capacity_bob(
    cfg: SystemConfig, p: float, split: PowerSplit, err: Optional[CsiError] = None
) -> float:
    """Bob's ergodic capacity E[log2(1 + phi * p * |h|^2)] in bits/use.

    |h|^2 is chi-squared with 2*na degrees of freedom (unit-variance
    entries), which integrates to a finite sum of exponential integrals;
    the exponentially scaled form keeps it finite as phi * p -> 0.

    With a channel-estimation error err, the transmitter beamforms on an
    imperfect estimate: the error leaks a fraction of the information
    power into a self-interference floor, which rescales the integral
    argument from z/p to (z/p + z * sigma_tilde2) / (1 - sigma_tilde2).
    At sigma_tilde2 = 0 the added term is exactly 0.0 and the divisor
    exactly 1.0, so CsiError(0.0) and err=None give the same result bit
    for bit; and as p -> inf the argument stays finite, giving the
    capacity ceiling that estimation error imposes.
    """
    if not p > 0:
        raise ValueError(f"power must be positive, got {p!r}")
    z = split.z
    s2 = 0.0 if err is None else err.sigma_tilde2
    w = (z / p + z * s2) / (1.0 - s2)
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
    # Single eavesdropper, capacity in nats: S_a(u) = sum_{m>=0} u^m / (a + m)
    # with a = na - 1 and u = (na - z)/a, so a u = na - z and a (1 - u) = z - 1.
    return specfun._lerch_sum(na - 1, na - z, z - 1.0)


def _dc2_nats_dz(na: int, z: float) -> float:
    # d/dz of the single-eavesdropper capacity S above, in nats. It equals
    # -2F1(2, a+1; a+2; u)/(a (a+1)) = -a 2F1(1, 2; na+1; w)/((a+1) (z-1)^2)
    # with w = (z - na)/(z - 1) = u/(u - 1) (Pfaff, DLMF 15.8.1). That Gauss
    # series slows as u -> 1, and for small na as u -> -inf; there the
    # identity dS/dz = (S - 1/(z-1))/u, from u dS/du = 1/(1-u) - a S, takes
    # over. Its cancellation costs up to about 3 na ulps near |u| = 1/2
    # (6e-13 at na = 512), so at u < -1/2 it runs only below na = 16.
    a = na - 1
    u = (na - z) / a
    if u > 0.5 or (u < -0.5 and na < 16):
        return (_eve_nats_single(na, z) - 1.0 / (z - 1.0)) / u
    w = (z - na) / (z - 1.0)
    return -a * specfun._hyp2f1_1b_c(2, na + 1, w) / ((a + 1.0) * (z - 1.0) ** 2)


def capacity_eve(cfg: SystemConfig, split: PowerSplit) -> float:
    """Eavesdroppers' ergodic capacity in bits/use; independent of total power.

    Noise-free eavesdroppers see SIR = (information power / per-dimension
    noise power) * X with X a fixed channel statistic, and the power
    ratio (na-1)/(z-1) carries the whole phi dependence. The capacity is
    a sum of ne hypergeometric terms, one per order statistic of the
    interference-whitened channel. For z <= 2 the orders k >= 1 follow from
    the first by one upward recurrence; beyond, where that recurrence is
    unstable, each takes its own series. A degenerate split with z <= 1
    yields inf rather than an error, so optimizers may probe the boundary.
    """
    z = split.z
    if z <= 1.0:
        return math.inf
    # Term k, in nats, is a/((z-1)(a-k)) 2F1(1, k+1; na; x) with a = na - 1
    # (weight C(a, k) B(k+1, a-k) = 1/(a-k); SystemConfig checked na, ne);
    # the k = 0 term is the single-eavesdropper sum. A contiguous relation in b
    # (DLMF 15.5) gives term_k = a/(k(a-k)) - (y/a)(a-k+1)/k term_{k-1} with
    # y = z - 1, whose error factor stays below 1 while y <= 1.
    a, y = cfg.na - 1, z - 1.0
    term = total = _eve_nats_single(cfg.na, z)
    x = (z - cfg.na) / y
    for k in range(1, cfg.ne):
        if y <= 1.0:
            term = a / (k * (a - k)) - y / a * (a - k + 1) / k * term
        else:
            term = a / y / (a - k) * specfun._hyp2f1_1b_c(k + 1, cfg.na, x)
        total += term
    return total / LN2


def secrecy_rate(
    cfg: SystemConfig, p: float, split: PowerSplit, err: Optional[CsiError] = None
) -> RateReport:
    """Ergodic secrecy rate max(C_bob - C_eve, 0) with its two components.

    A channel-estimation error err degrades only Bob's side; the
    eavesdropper term is unchanged because the artificial noise is
    isotropic in the estimated null space and the eavesdropper channels
    are independent of the estimation error.
    """
    c1 = capacity_bob(cfg, p, split, err)
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
