"""Power-split optimization and critical-SNR solvers.

Everything here works on the closed forms: a golden-section search over
the information-power fraction phi (optionally with channel-estimation
error), an adaptive variant that re-splits per channel realization
under a Gauss-Laguerre expectation, high-SNR stationarity solvers for
the noise weighting z = 1/phi, and the two critical-SNR routines (the
exact crossover of the two capacities, and an analytic upper bound).
Powers are linear throughout; dB conversion happens at the CLI edge.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .secrecy import (
    LN2,
    CsiError,
    PowerSplit,
    SystemConfig,
    _dc2_nats_dz,
    _is_int,
    capacity_bob,
    capacity_eve,
)

logger = logging.getLogger(__name__)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_PHI_GRID_N = 65  # coarse bracketing grid before golden refinement
_PHI_GRID = tuple((i + 1) / (_PHI_GRID_N + 1) for i in range(_PHI_GRID_N))
_EVE_GRID_CACHE_SIZE = 256  # (na, ne) tables of C2 kept by _eve_on_grid
_PHI_TOL = 1e-6
_SNR_PROBE = 1e6  # first upper bracket of the critical SNR, 60 dB
_REGIMES = ("exact-ne1", "na2-closed", "large-na", "large-na-asymptotic")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a power-split search."""

    phi_star: float
    z_star: float
    c_star: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class CriticalSnr:
    """Smallest total power with positive secrecy rate, linear scale.

    p_c_bound is the analytic upper bound (inf when it gives no finite
    value); p_c_exact is the bisected crossover of the two capacities,
    or None when it was not computed.
    """

    p_c_bound: float
    p_c_exact: Optional[float] = None

    def __post_init__(self) -> None:
        if self.p_c_exact is not None and self.p_c_exact > self.p_c_bound:
            raise ValueError(
                f"exact threshold {self.p_c_exact!r} exceeds its upper "
                f"bound {self.p_c_bound!r}"
            )

    @property
    def p_c_bound_db(self) -> float:
        return to_db(self.p_c_bound)

    @property
    def p_c_exact_db(self) -> Optional[float]:
        return None if self.p_c_exact is None else to_db(self.p_c_exact)


def to_db(p: float) -> float:
    """Linear power ratio to dB; maps inf to inf."""
    if p <= 0:
        raise ValueError(f"need a positive power, got {p!r}")
    return 10.0 * math.log10(p)


def from_db(snr_db: float) -> float:
    """dB to linear power ratio."""
    return 10.0 ** (snr_db / 10.0)


def _golden_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float, int]:
    # Golden-section maximization on [lo, hi] to an interval of width tol.
    a, b = lo, hi
    c = a + _INVPHI2 * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = a + _INVPHI2 * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        iterations += 1
    x = 0.5 * (a + b)
    return x, f(x), iterations


@lru_cache(maxsize=_EVE_GRID_CACHE_SIZE)
def _eve_on_grid(na: int, ne: int) -> tuple[float, ...]:
    # C2 at every grid phi. It does not depend on the power, so the
    # solvers share one table per (na, ne) across powers and gains.
    cfg = SystemConfig(na, ne)
    return tuple(capacity_eve(cfg, PowerSplit(phi)) for phi in _PHI_GRID)


def _maximize_over_grid(
    cfg: SystemConfig, bob: Callable[[float], float]
) -> tuple[float, float, int]:
    # Maximize the clamped secrecy rate max(bob(phi) - C2(phi), 0). The
    # best of the 65 grid rates and its neighbours (halfway to 0 or 1 at an
    # edge) bracket the peak, which golden section refines in phi. Returns
    # (phi*, rate*, iterations); the best grid point when it beats the
    # refinement, and with rate 0 and no iterations when no grid rate is
    # positive (the rate can be identically zero below the critical SNR).
    def rate(phi: float) -> float:
        return max(bob(phi) - capacity_eve(cfg, PowerSplit(phi)), 0.0)

    grid = _PHI_GRID
    values = [max(bob(phi) - c2, 0.0) for phi, c2 in zip(grid, _eve_on_grid(cfg.na, cfg.ne))]
    if logger.isEnabledFor(logging.DEBUG):
        for phi, val in zip(grid, values):
            logger.debug("phi=%.6f rate=%.12g", phi, val)
    best = max(range(_PHI_GRID_N), key=values.__getitem__)
    if values[best] <= 0.0:
        return grid[best], 0.0, 0
    lo = grid[best - 1] if best > 0 else grid[0] / 2.0
    hi = grid[best + 1] if best < _PHI_GRID_N - 1 else (grid[-1] + 1.0) / 2.0
    phi_star, r_star, iterations = _golden_max(rate, lo, hi, _PHI_TOL)
    if values[best] > r_star:
        return grid[best], values[best], iterations
    return phi_star, r_star, iterations


def optimize_phi(
    cfg: SystemConfig,
    p: float,
    err: Optional[CsiError] = None,
) -> OptResult:
    """Best fixed power split: maximize the secrecy rate over phi in (0, 1).

    A 65-point grid brackets the maximum (the rate is unimodal in phi but
    can be identically zero below the critical SNR), then golden-section
    refines to |delta phi| < 1e-6. With an all-zero grid the best grid
    point is returned with converged=False. When the "ansec" logger is
    enabled for DEBUG, each grid point is logged as "phi=... rate=...".
    """

    def bob(phi: float) -> float:
        return capacity_bob(cfg, p, PowerSplit(phi), err)

    phi_star, c_star, iterations = _maximize_over_grid(cfg, bob)
    return OptResult(phi_star, 1.0 / phi_star, c_star, iterations, c_star > 0.0)


@lru_cache(maxsize=32)
def _laguerre_rule(order: int, alpha: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # Gauss-Laguerre nodes/weights for weight x^alpha e^-x, weights
    # normalized to sum to one (the Gamma(alpha+1, 1) expectation).
    from scipy.special import roots_genlaguerre

    nodes, weights = roots_genlaguerre(order, alpha)
    total = weights.sum()
    return tuple(nodes.tolist()), tuple((weights / total).tolist())


def _best_rate_at_gain(cfg: SystemConfig, p: float, gain: float) -> float:
    # Largest clamped instantaneous secrecy rate for a known beamforming gain.
    def bob(phi: float) -> float:
        return math.log1p(p * gain / (1.0 / phi)) / LN2

    return _maximize_over_grid(cfg, bob)[1]


def optimize_phi_adaptive(
    cfg: SystemConfig, p: float, quadrature_order: int = 64
) -> float:
    """Ergodic secrecy rate when the power split adapts to each realization.

    The transmitter knows its beamforming gain |h|^2 per realization and
    picks the rate-maximizing split for that draw; the eavesdropper term
    still only depends on the split. The outer expectation over the
    Gamma(na, 1)-distributed gain uses a normalized Gauss-Laguerre rule;
    the inner maximization is solved to 1e-6 in phi at every node. Never
    below the fixed-split optimum, and noticeably above it only near the
    critical SNR: less than about 3 dB above the equal-split threshold.
    Elsewhere the gain is small and shrinks as power or antennas grow.
    """
    if not _is_int(quadrature_order) or quadrature_order < 2:
        raise ValueError(
            f"quadrature_order must be an integer >= 2, got {quadrature_order!r}"
        )
    if not p > 0:
        raise ValueError(f"power must be positive, got {p!r}")
    nodes, weights = _laguerre_rule(quadrature_order, cfg.na - 1)
    return math.fsum(
        w * _best_rate_at_gain(cfg, p, g) for g, w in zip(nodes, weights)
    )


def _bisect_decreasing(
    f: Callable[[float], float], lo: float, hi_start: float, hi_cap: float
) -> float:
    # Root of a sign-changing f with f(lo) > 0; hi is doubled until
    # f(hi) <= 0, then plain bisection to ~1e-13 relative.
    hi = hi_start
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > hi_cap:
            raise RuntimeError(f"no sign change found below {hi_cap}")
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def high_snr_optimal_z(cfg: SystemConfig, regime: str) -> float:
    """Limit of the optimal noise weighting z = 1/phi as power grows.

    regime selects the model solved:
      "exact-ne1"           stationarity of the exact single-eavesdropper
                            rate; needs ne = 1.
      "na2-closed"          the na = 2 case, where the limit is exactly 2.
      "large-na"            stationarity of the many-antenna limit
                            (depends only on ne).
      "large-na-asymptotic" the closed approximation 1 + sqrt(ne) to the
                            "large-na" root, good for large ne.
    """
    if regime not in _REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {_REGIMES}")
    if regime == "na2-closed":
        if cfg.na != 2:
            raise ValueError(f"the closed na=2 limit needs na=2, got na={cfg.na}")
        return 2.0
    if regime == "large-na-asymptotic":
        return 1.0 + math.sqrt(cfg.ne)
    if regime == "exact-ne1":
        if cfg.ne != 1:
            raise ValueError(f"the exact-ne1 regime needs ne=1, got ne={cfg.ne}")

        def f(z: float) -> float:
            return -1.0 / z - _dc2_nats_dz(cfg.na, z)

        return _bisect_decreasing(f, 1.0 + 1e-9, 2.0, 1e6)

    from .specfun import scaled_expint_en

    def g(z: float) -> float:
        return -1.0 / z - scaled_expint_en(cfg.ne, z - 1.0) + 1.0 / (z - 1.0)

    return _bisect_decreasing(g, 1.0 + 1e-9, 2.0, 1e6)


def critical_snr_exact(
    cfg: SystemConfig, split: PowerSplit, err: Optional[CsiError] = None
) -> float:
    """Power where Bob's capacity first exceeds the eavesdroppers', linear.

    Bisected in log-power until the bracket is tighter than 0.001 dB. The
    upper bracket starts at 60 dB and grows 16-fold while the rate is zero
    there. inf means estimation error caps Bob's capacity at or below the
    eavesdroppers'; RuntimeError means the rate is still zero past 1e300.
    """
    c2 = capacity_eve(cfg, split)

    def gap(p: float) -> float:
        return capacity_bob(cfg, p, split, err) - c2

    hi = _SNR_PROBE
    if gap(hi) <= 0.0:
        if err is not None and err.sigma_tilde2 > 0.0 and gap(math.inf) <= 0.0:
            return math.inf
        while gap(hi) <= 0.0:
            hi *= 16.0
            if hi > 1e300:
                raise RuntimeError(f"the secrecy rate is still zero at p = {hi:g}, C2 = {c2!r}")
    lo = hi
    while gap(lo) > 0.0:
        lo /= 16.0
    while 10.0 * math.log10(hi / lo) > 1e-3:
        mid = math.sqrt(hi * lo)
        if gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return math.sqrt(hi * lo)


def critical_snr_upper_bound(
    cfg: SystemConfig, split: PowerSplit, err: Optional[CsiError] = None
) -> float:
    """Analytic upper bound on the critical power, linear scale.

    Replaces Bob's exact curve with a concavity bound, giving
    p <= 1 / ((1 - s2) A / z - s2) with A = na / D - (na+1)/2 and D the
    eavesdroppers' capacity in nats (s2 = 0 recovers z / A). When the
    denominator is nonpositive the bound gives no finite value and inf is
    returned; the exact threshold can still be finite, and at s2 = 0 it
    always is.
    """
    d_nats = capacity_eve(cfg, split) * LN2
    a_term = cfg.na / d_nats - (cfg.na + 1.0) / 2.0
    s2 = err.sigma_tilde2 if err is not None else 0.0
    denom = (1.0 - s2) * a_term / split.z - s2
    if denom <= 0.0:
        return math.inf
    return 1.0 / denom


def critical_snr(
    cfg: SystemConfig, split: PowerSplit, err: Optional[CsiError] = None
) -> CriticalSnr:
    """Both critical-SNR figures for one configuration."""
    bound = critical_snr_upper_bound(cfg, split, err)
    exact = critical_snr_exact(cfg, split, err)
    return CriticalSnr(p_c_bound=bound, p_c_exact=exact)
