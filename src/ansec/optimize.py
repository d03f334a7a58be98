"""Power-split optimization and critical-SNR solvers.

Everything here works on the closed forms: a root search of dR/dz over
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
import sys
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Optional

import numpy as np

from .secrecy import (
    LN2,
    CsiError,
    PowerSplit,
    SystemConfig,
    _dc1_nats_dz,
    _dc2_nats_dz,
    _is_int,
    capacity_bob,
    capacity_eve,
)
from .specfun import scaled_expint_en, scaled_expint_sum

logger = logging.getLogger(__name__)

_PHI_GRID_N = 65  # coarse bracketing grid before the root refinement
_PHI_GRID = tuple((i + 1) / (_PHI_GRID_N + 1) for i in range(_PHI_GRID_N))
_EVE_GRID_CACHE_SIZE = 256  # (na, ne) tables of C2 kept by _eve_on_grid
_PHI_TOL = 1e-10  # root tolerance in phi, on top of 4 ulps
_BOUND_MARGIN = 1.0 + 2.0**-40  # relative slack of the adaptive sum's term bounds
_REGIMES = ("exact", "exact-ne1", "na2-closed", "large-na", "large-na-asymptotic")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a power-split search."""

    phi_star: float
    z_star: float
    c_star: float
    iterations: int  # steps of the root finder
    converged: bool


@dataclass(frozen=True)
class CriticalSnr:
    """Smallest total power with positive secrecy rate, linear scale.

    p_c_bound is the analytic upper bound (inf when it gives no finite
    value); p_c_exact is the crossover of the two capacities, or None
    when it was not computed.
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


def _zeroin(f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
            tol: float) -> tuple[float, int]:
    # Brent's zeroin (Algorithms for Minimization without Derivatives, ch. 4): (root,
    # evaluations of f), the root between a and b where fa = f(a) and fb = f(b) differ
    # in sign, to 4 ulps plus tol/2.
    c, fc, steps = b, fb, 0  # the first pass sets c = a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol1 = 2.0 * sys.float_info.epsilon * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b, steps
        p = q = 0.0
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            q = -q if p > 0.0 else q
        if 2.0 * abs(p) < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
            e, d = d, abs(p) / q
        else:  # bisection
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
        steps += 1


@lru_cache(maxsize=_EVE_GRID_CACHE_SIZE)
def _eve_on_grid(na: int, ne: int) -> tuple[float, ...]:
    # C2 at every grid phi. It does not depend on the power, so the
    # solvers share one table per (na, ne) across powers and gains.
    cfg = SystemConfig(na, ne)
    return tuple(capacity_eve(cfg, PowerSplit(phi)) for phi in _PHI_GRID)


@lru_cache(maxsize=16 * _EVE_GRID_CACHE_SIZE)
def _dc2_at_end(na: int, ne: int, phi: float) -> float:
    # dC2/dz at a bracket end: a grid point, or halfway past an edge of the grid.
    return _dc2_nats_dz(na, ne, 1.0 / phi)


def _first_peak(gap: Callable[[int], float]) -> int:
    # Grid index of the first maximum of a gap that is unimodal over the grid:
    # the first i with gap(i + 1) <= gap(i), by bisection on that sign. It
    # reads at most 12 of the 65 points, some of them twice.
    lo, hi = 0, _PHI_GRID_N - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if gap(mid + 1) > gap(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _maximize_over_grid(
    cfg: SystemConfig, bob: Callable[[float], float], bob_slope: Callable[[float], float],
    gap: Optional[Callable[[int], float]] = None,
) -> tuple[float, float, int]:
    # Maximize the clamped secrecy rate max(bob(phi) - C2(phi), 0), bob_slope
    # being d bob/dz in nats. gap(i) is the unclamped bob - C2 at grid point i;
    # by default bob runs once at each point the search reads. The gap is
    # unimodal in phi, so the best grid rate is at _first_peak, and its
    # neighbours (halfway to 0 or 1 at an edge) bracket the root of dR/dz.
    # Returns (phi*, rate*, root steps); the best grid point when it beats the
    # root, and the first grid point, rate 0 and no steps when no gap is positive.
    na, ne, grid = cfg.na, cfg.ne, _PHI_GRID
    if gap is None:
        eve = _eve_on_grid(na, ne)
        gap = cache(lambda i: bob(grid[i]) - eve[i])
    if logger.isEnabledFor(logging.DEBUG):
        for i, phi in enumerate(grid):
            logger.debug("phi=%.6f rate=%.12g", phi, max(gap(i), 0.0))
    best = _first_peak(gap)
    peak = gap(best)
    if peak <= 0.0:
        return grid[0], 0.0, 0

    def slope(phi: float) -> float:
        return bob_slope(1.0 / phi) - _dc2_nats_dz(na, ne, 1.0 / phi)

    lo = grid[best - 1] if best > 0 else grid[0] / 2.0
    hi = grid[best + 1] if best < _PHI_GRID_N - 1 else (grid[-1] + 1.0) / 2.0
    f_lo, f_hi = (bob_slope(1.0 / end) - _dc2_at_end(na, ne, end) for end in (lo, hi))
    if f_lo * f_hi > 0.0:  # no sign change: the rate rises toward one end
        phi, steps = (lo if f_lo > 0.0 else hi), 0
    else:
        phi, steps = _zeroin(slope, lo, hi, f_lo, f_hi, _PHI_TOL)
    rate = max(bob(phi) - capacity_eve(cfg, PowerSplit(phi)), 0.0)
    if peak > rate:
        return grid[best], peak, steps
    return phi, rate, steps


def optimize_phi(
    cfg: SystemConfig,
    p: float,
    err: Optional[CsiError] = None,
) -> OptResult:
    """Best fixed power split: maximize the secrecy rate over phi in (0, 1).

    The rate is unimodal in phi but can be identically zero below the
    critical SNR. Bisection on the sign of its change between neighbours
    of a 65-point grid finds the best grid point from at most 12 rates;
    that point's neighbours bracket the maximum, and Brent's method solves
    dR/dz = 0 there from the closed-form slopes of both capacities;
    iterations counts its steps. With an all-zero grid the first grid point
    is returned with converged=False. When the "ansec" logger is enabled
    for DEBUG, all 65 grid points are evaluated and logged as
    "phi=... rate=...".
    """

    def bob(phi: float) -> float:
        return capacity_bob(cfg, p, PowerSplit(phi), err)

    def bob_slope(z: float) -> float:
        return _dc1_nats_dz(cfg.na, p, z, err)

    phi_star, c_star, iterations = _maximize_over_grid(cfg, bob, bob_slope)
    return OptResult(phi_star, 1.0 / phi_star, c_star, iterations, c_star > 0.0)


@lru_cache(maxsize=32)
def _laguerre_rule(order: int, alpha: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # Gauss-Laguerre rule for weight x^alpha e^-x, weights summing to one (the
    # Gamma(alpha+1, 1) expectation), by Golub-Welsch from the Jacobi matrix's
    # eigenpairs; Gamma(alpha+1), infinite from alpha = 171 on, never appears.
    k = np.arange(order)
    jacobi = np.diag(2.0 * k + alpha + 1.0)
    jacobi[k[1:], k[:-1]] = np.sqrt(k[1:] * (k[1:] + alpha))
    nodes, vectors = np.linalg.eigh(jacobi)  # reads the lower triangle only
    weights = vectors[0] ** 2
    return tuple(nodes.tolist()), tuple((weights / weights.sum()).tolist())


def _term_bounds(gains: np.ndarray, weights: tuple[float, ...]) -> np.ndarray:
    # w log2(1 + t) bounds a node's term w * rate at gain t, as phi < 1 and C2 >= 0;
    # the margin covers np.log1p against math.log1p and the roundings on the way
    return np.array(weights) * (np.log1p(gains) / LN2 * _BOUND_MARGIN)


def _best_rate_at_gain(
    cfg: SystemConfig, p: float, gain: float, gap: Optional[Callable[[int], float]] = None
) -> float:
    # Largest clamped instantaneous secrecy rate for a known beamforming gain.
    t = p * gain

    def bob(phi: float) -> float:
        return math.log1p(t / (1.0 / phi)) / LN2

    def bob_slope(z: float) -> float:
        return -t / (z * (z + t))

    return _maximize_over_grid(cfg, bob, bob_slope, gap)[1]


def optimize_phi_adaptive(
    cfg: SystemConfig, p: float, quadrature_order: int = 64
) -> float:
    """Ergodic secrecy rate when the power split adapts to each realization.

    The transmitter knows its beamforming gain |h|^2 per realization and
    picks the rate-maximizing split for that draw; the eavesdropper term
    still only depends on the split. The outer expectation over the
    Gamma(na, 1)-distributed gain uses a normalized Gauss-Laguerre rule.
    At every node t = p |h|^2 the inner maximum is the root of
    dR/dz = -t/(z(z+t)) - dC2/dz, found as in optimize_phi; all nodes share
    one grid table of C2. Nodes are solved in descending order of their
    term bounds w log2(1 + t) until the unsolved bounds cannot change the
    rounded sum, so the result is the all-node math.fsum bit for bit. p
    times the largest node must be finite, else ValueError. Never below
    the fixed-split optimum, and noticeably above it only near the critical
    SNR: less than about 3 dB above the equal-split threshold. Elsewhere the
    gain is small and shrinks as power or antennas grow.
    """
    if not _is_int(quadrature_order) or not 2 <= quadrature_order <= 1024:
        raise ValueError(  # the rule's dense eigenproblem costs order^2 doubles
            f"quadrature_order must be an integer in [2, 1024], got {quadrature_order!r}"
        )
    nodes, weights = _laguerre_rule(quadrature_order, cfg.na - 1)
    if not 0 < p * nodes[-1] < math.inf:  # perfect estimates give no finite rate at p = inf
        raise ValueError(f"power must be positive and finite without a channel-estimation "
                         f"error, got {p!r}; times the largest Laguerre node {nodes[-1]!r} "
                         f"it is {p * nodes[-1]!r}")
    gains = p * np.array(nodes)
    # All nodes' grid gaps at once; root rates keep math.log1p (np.log1p may differ)
    bob = np.log1p(gains[:, None] / (1.0 / np.array(_PHI_GRID))) / LN2
    rows = (bob - np.array(_eve_on_grid(cfg.na, cfg.ne))).tolist()
    bounds = _term_bounds(gains, weights)
    ranked = np.argsort(-bounds, kind="stable")
    # tails[i] bounds the terms of ranked[i:], summed from the smallest up (a
    # running subtraction reaches 0 too early), with a margin for its roundings
    tails = (np.cumsum(bounds[ranked[::-1]])[::-1] * _BOUND_MARGIN).tolist()
    parts, total = [], 0.0
    for k, rest in zip(ranked.tolist(), tails):
        # the unsolved terms lie in [0, rest] and rounding is monotone: once rest
        # cannot move the rounded sum, neither can they (fsum runs only near there)
        if rest <= 2.0**-50 * total and math.fsum(parts) == math.fsum(parts + [rest]):
            break
        parts.append(weights[k] * _best_rate_at_gain(cfg, p, nodes[k], rows[k].__getitem__))
        total += parts[-1]
    return math.fsum(parts)


def high_snr_optimal_z(cfg: SystemConfig, regime: str) -> float:
    """Limit of the optimal noise weighting z = 1/phi as power grows.

    regime selects the model solved:
      "exact"               stationarity of the exact rate, where Bob's
                            slope tends to -1/z; any ne.
      "exact-ne1"           the same, restricted to ne = 1.
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
    if regime == "exact-ne1" and cfg.ne != 1:
        raise ValueError(f"the exact-ne1 regime needs ne=1, got ne={cfg.ne}")

    def f(z: float) -> float:
        if regime == "large-na":
            return -1.0 / z - scaled_expint_en(cfg.ne, z - 1.0) + 1.0 / (z - 1.0)
        return -1.0 / z - _dc2_nats_dz(cfg.na, cfg.ne, z)

    # f > 0 near z = 1; double the upper end until f changes sign
    lo, hi = 1.0 + 1e-9, 2.0
    f_lo, f_hi = f(lo), f(hi)
    while f_hi > 0.0:
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        if hi > 1e6:
            raise RuntimeError("no sign change found below 1e6")
        f_hi = f(hi)
    return _zeroin(f, lo, hi, f_lo, f_hi, 0.0)[0]


def _bound_arg(cfg: SystemConfig, split: PowerSplit) -> tuple[float, float]:
    # (C2 in nats, the bound's Bob argument A = na/C2 - (na+1)/2), A <= w* (the paper's bound)
    c2 = capacity_eve(cfg, split) * LN2
    if c2 == 0.0 or math.isinf(cfg.na / c2):
        raise ValueError(f"na/C2 overflows at phi = {split.phi!r}: C2 = {c2!r} nats")
    return c2, cfg.na / c2 - (cfg.na + 1.0) / 2.0


def _power_at(w: float, z: float, err: Optional[CsiError]) -> float:
    # The power p with _bob_arg(p, z, err) = w, falling in w; inf when no power has it.
    s2 = err.sigma_tilde2 if err is not None else 0.0
    denom = (1.0 - s2) * w / z - s2
    return 1.0 / denom if denom > 0.0 else math.inf


def critical_snr_exact(
    cfg: SystemConfig, split: PowerSplit, err: Optional[CsiError] = None
) -> float:
    """Power where Bob's capacity first exceeds the eavesdroppers', linear.

    Bob's capacity C1 falls strictly in the argument w of his exponential
    integrals, so Brent's method finds the root w* of C1(w) = C2 (nats)
    between max(A, na e^(-1/na - C2)) (digamma) and na/expm1(C2) (1 + 2^-20)
    (Jensen), A being the bound's argument, and maps it to power as the bound
    maps A: so the result is at most the bound, and equals it if C1(A) <= C2.
    inf means estimation error caps C1 at or below C2; RuntimeError means C2
    is infinite, ValueError that na/C2 overflows.
    """
    c2, a_term = _bound_arg(cfg, split)
    if math.isinf(c2):
        raise RuntimeError(f"the secrecy rate is still zero at p = inf, C2 = {c2!r} nats")

    def excess(w: float) -> float:
        return scaled_expint_sum(cfg.na, w) - c2

    w = max(a_term, cfg.na * math.exp(-1.0 / cfg.na - c2))
    f_w = excess(w)
    if f_w > 0.0:  # else w* is this lower end to rounding
        hi = cfg.na / math.expm1(c2) * (1.0 + 2.0**-20)  # the margin outlasts rounding
        w = _zeroin(excess, w, hi, f_w, excess(hi), 0.0)[0]
    return _power_at(w, split.z, err)


def critical_snr_upper_bound(
    cfg: SystemConfig, split: PowerSplit, err: Optional[CsiError] = None
) -> float:
    """Analytic upper bound on the critical power, linear scale.

    Replaces Bob's exact curve with a concavity bound, giving
    p <= 1 / ((1 - s2) A / z - s2) with A = na / D - (na+1)/2 and D the
    eavesdroppers' capacity in nats (s2 = 0 recovers z / A). When the
    denominator is nonpositive the bound gives no finite value and inf is
    returned; the exact threshold can still be finite, and at s2 = 0 it
    always is. ValueError means phi is so small that na / D overflows.
    """
    return _power_at(_bound_arg(cfg, split)[1], split.z, err)


def critical_snr(
    cfg: SystemConfig, split: PowerSplit, err: Optional[CsiError] = None
) -> CriticalSnr:
    """Both critical-SNR figures for one configuration."""
    bound = critical_snr_upper_bound(cfg, split, err)
    exact = critical_snr_exact(cfg, split, err)
    return CriticalSnr(p_c_bound=bound, p_c_exact=exact)
