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
        if not 0.0 < self.phi < 1.0 or math.isinf(1.0 / self.phi):
            raise ValueError(f"phi must lie inside (0, 1) with z = 1/phi finite, got {self.phi!r}")

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
            raise ValueError(f"sigma_tilde2 must lie in [0, 1), got {self.sigma_tilde2!r}")

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
    capacity ceiling that estimation error imposes; without estimation
    error p = inf raises ValueError.
    """
    if not p > 0:
        raise ValueError(f"power must be positive, got {p!r}")
    if p == math.inf and (err is None or err.sigma_tilde2 == 0.0):  # no finite limit
        raise ValueError(f"power {p!r} needs a channel-estimation error sigma_tilde2 > 0")
    return specfun.scaled_expint_sum(cfg.na, _bob_arg(p, split.z, err)) / LN2


def _bob_arg(p: float, z: float, err: Optional[CsiError]) -> float:
    # Argument w = kappa z of Bob's exponential integrals, kappa = (1/p + s2)/(1 - s2).
    s2 = 0.0 if err is None else err.sigma_tilde2
    return (z / p + z * s2) / (1.0 - s2)


def _dc1_nats_dz(na: int, p: float, z: float, err: Optional[CsiError]) -> float:
    # dC1/dz in nats: E_k' = -E_{k-1} (A&S 5.1.26) telescopes Bob's sum to kappa
    # (e^w E_na(w) - 1/w) = -na e^w E_{na+1}(w)/z (A&S 5.1.14), -> -1/z as p -> inf.
    return -na * specfun.scaled_expint_en(na + 1, _bob_arg(p, z, err)) / z


def ccdf_sir(x: float, cfg: SystemConfig) -> float:
    """P(X > x) for the eavesdroppers' combined signal-to-interference ratio
    at unit power ratio (information power == per-dimension noise power).

    Equals (sum_{k<ne} C(na-1, k) x^k) / (1+x)^{na-1}. Only the term at min(ne-1,
    mode) is evaluated; the ratio k/((na-k) x) runs away from the mode, so no step grows.
    That term's factor (1+x)^{k+1-na} is applied in two halves where whole it
    would underflow.
    """
    if not x >= 0:
        raise ValueError(f"the SIR is nonnegative, got x={x}")
    if x == math.inf:
        return 0.0
    a, top = cfg.na - 1, cfg.ne - 1
    r, q = x / (1.0 + x), 1.0 / (1.0 + x)
    k = up = top if (a + 1) * r >= top else int((a + 1) * r)
    term, tail = math.comb(a, k) * r**k, q ** (a - k)
    if tail < 2.2250738585072014e-308:  # q^(a-k) leaves the normal range, the term need not
        term *= q ** ((a - k) // 2)
        tail = q ** (a - k - (a - k) // 2)
    total = down = term = term * tail
    while k > 0:
        down *= k / ((a - k + 1) * x)
        total += down
        k -= 1
    while up < top:
        up += 1
        term *= (a - up + 1) * x / up
        total += term
    return total


def capacity_eve(cfg: SystemConfig, split: PowerSplit) -> float:
    """Eavesdroppers' ergodic capacity in bits/use; independent of total power.

    Noise-free eavesdroppers see SIR = (information power / per-dimension
    noise power) * X with X a fixed channel statistic, and the power
    ratio (na-1)/(z-1) carries the whole phi dependence. The capacity is
    a sum of ne hypergeometric terms, one per order statistic of the
    interference-whitened channel. One order is evaluated and the others
    follow from a contiguous relation, run upward and downward from it so
    that each direction damps rounding error. A degenerate split with z <= 1
    yields inf rather than an error, so optimizers may probe the boundary.
    """
    z = split.z
    if z <= 1.0:
        return math.inf
    total = 0.0
    for term in _eve_terms(cfg.na, cfg.ne, z):
        total += term
    return total / LN2


def _eve_terms(na: int, n: int, z: float) -> list[float]:
    # The first n <= na - 1 C2 terms in nats: term k is a/((z-1)(a-k)) 2F1(1,
    # k+1; na; x), a = na - 1 (weight C(a, k) B(k+1, a-k) = 1/(a-k)); term 0 is
    # S_a(u) = sum_m u^m/(a+m) with a u = na - z and a (1 - u) = z - 1, the
    # single-eavesdropper sum. A contiguous relation in b (DLMF 15.5) gives
    # term_k = a/(k(a-k)) - r_k term_{k-1}, r_k = (y/a)(a-k+1)/k, y = z - 1,
    # and r_k falls through 1 at k* = (a+1)/(1 + a/y): order s just below k*
    # (0: S_a; a - 1: the bounded top term, c = b + 1; else Gauss's continued
    # fraction) seeds the relation both ways, each damping its error; y
    # divides last, so no step overflows up to z = 1e308.
    a, y = na - 1, z - 1.0
    s = 0 if n == 1 else min(a - 1, math.ceil((a + 1) / (1.0 + a / y)) - 1)
    if s == 0:
        terms = [specfun._lerch_sum(a, na - z, y)]
    elif s == a - 1:
        terms = [a * a / y * specfun._lerch_sum(a, a * (z - na) / y, a * a / y)]
    else:
        terms = [a / y / (a - s) * specfun._hyp2f1_1b_c(s + 1, na, (z - na) / y)]
    for k in range(s, 0, -1):
        terms.append((a / (k * (a - k)) - terms[-1]) * (k * a / (a - k + 1)) / y)
    terms.reverse()
    for k in range(s + 1, n):
        terms.append(a / (k * (a - k)) - y / a * (a - k + 1) / k * terms[-1])
    return terms[:n] if s >= n else terms


def _dc2_nats_dz(na: int, ne: int, z: float) -> float:
    # dC2/dz in nats. With F_b = 2F1(1, b; na; x), x(1-x) F_b' = (na-b) F_{b-1}
    # + (b-na+x) F_b (DLMF 15.5) and dx/dz = a/y^2, the slopes of the ne terms
    # telescope to a (1 - F_ne)/(y (z - na)), F_ne = y (na-ne) term_{ne-1}/a.
    # Where F_ne is within about 1/16 of 1, that difference cancels; there
    # F_ne - 1 = (ne x/na) 2F1(1, ne+1; na+1; x) instead, and x/(z - na) = 1/y.
    a, y = na - 1, z - 1.0
    f = y * (na - ne) / a * _eve_terms(na, ne, z)[-1]
    if 16.0 * abs(1.0 - f) >= f:
        return a * (1.0 - f) / (y * (z - na))
    return -a * ne / na * specfun._hyp2f1_1b_c(ne + 1, na + 1, (z - na) / y) / (y * y)


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
