"""Monte Carlo cross-check of the closed forms by direct channel simulation.

Nothing here reuses the analytic capacity expressions (the imperfect-CSI
routine subtracts the closed eavesdropper term, which is exact): channels
are drawn as iid circularly symmetric complex Gaussians, and the
eavesdroppers' combined SIR is the MMSE quadratic form against their
interference Gram matrix: batched draws form it as G G^H - g1 g1^H and
solve it by an LDL^H sweep across the chunk, single draws by LU.
Estimates stream through a merged-moments accumulator in fixed-size
chunks with one spawned substream per chunk, so a given (seed,
n_samples, configuration) reproduces bit-for-bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .secrecy import LN2, CsiError, PowerSplit, SystemConfig, _is_int, capacity_eve

COND_LIMIT = 1e12  # Gram matrices at or above this are discarded and redrawn
_TRACE_LIMIT = 1e6  # tr(G) tr(G^-1) at which a row leaves the sweep for the exact rule
_TARGET_CHUNK_ELEMENTS = 4_000_000


class GramConditionError(RuntimeError):
    """Raised when a single requested draw has an unusable interference Gram."""


@dataclass(frozen=True)
class ChannelDraw:
    """One channel realization with its transmit frame.

    h is the receiver channel (na,), g the eavesdropper channels
    (ne, na), w1 the matched beamformer, and w2 an orthonormal basis
    (na, na-1) of the directions the artificial noise occupies.
    """

    h: np.ndarray
    g: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error and provenance."""

    mean: float
    stderr: float
    n_samples: int
    seed: int
    n_discarded: int = 0


class _Moments:
    # Streaming mean/variance with pairwise chunk merging (Chan's update).

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, xs: np.ndarray) -> None:
        nb = int(xs.size)
        if nb == 0:
            return
        mb = float(xs.mean())
        m2b = float(((xs - mb) ** 2).sum())
        delta = mb - self.mean
        n_new = self.n + nb
        self.mean += delta * nb / n_new
        self.m2 += m2b + delta * delta * self.n * nb / n_new
        self.n = n_new

    @property
    def stderr(self) -> float:
        if self.n < 2:
            return math.inf
        return math.sqrt(self.m2 / (self.n - 1) / self.n)


def _complex_gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # Unit-variance circularly symmetric entries: each component var 1/2.
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)


def _null_space_frame(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Householder completion of the matched beamformer to a unitary frame.
    na = h.shape[0]
    w1 = h.conj() / np.linalg.norm(h)
    lead = w1[0]
    s = lead / abs(lead) if lead != 0 else 1.0 + 0.0j
    v = w1.copy()
    v[0] += s
    reflector = np.eye(na, dtype=complex) - (2.0 / np.vdot(v, v).real) * np.outer(
        v, v.conj()
    )
    reflector[:, 0] *= -s
    return reflector[:, 0], reflector[:, 1:]


def sample_channel(cfg: SystemConfig, rng: np.random.Generator) -> ChannelDraw:
    """Draw one Rayleigh realization and its transmit frame."""
    h = _complex_gaussian(rng, (cfg.na,))
    g = _complex_gaussian(rng, (cfg.ne, cfg.na))
    w1, w2 = _null_space_frame(h)
    return ChannelDraw(h=h, g=g, w1=w1, w2=w2)


def sir_mmse(draw: ChannelDraw) -> float:
    """Eavesdroppers' combined SIR statistic at unit power ratio.

    The MMSE quadratic form g1^H (G2 G2^H)^{-1} g1 with g1 = G w1 and
    G2 = G W2; multiply by (information power / per-dimension noise
    power) for the physical SIR. Raises GramConditionError when the
    interference Gram matrix is too ill-conditioned to trust.
    """
    g1 = draw.g @ draw.w1
    g2 = draw.g @ draw.w2
    x, good = _mmse_exact(g1[None], (g2 @ g2.conj().T)[None])
    if not good[0]:
        raise GramConditionError(f"interference Gram condition is not below {COND_LIMIT:.0e}")
    return float(x[0])


def _eve_mixed(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Batched g1 = G w1 and Gram G2 G2^H. W2 enters only through its projector
    # W2 W2^H = I - w1 w1^H, so G2 G2^H = G G^H - g1 g1^H and W2 is never built.
    w1 = h.conj() / np.linalg.norm(h, axis=1, keepdims=True)
    g1 = np.einsum("nek,nk->ne", g, w1)
    gram = g @ g.conj().swapaxes(1, 2)
    gram -= g1[:, :, None] * g1.conj()[:, None, :]
    return g1, gram


def _sir_stat_batch(g1: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # MMSE form g1^H gram^{-1} g1 per row, with the mask of rows whose Gram
    # passes the exact COND_LIMIT rule of _mmse_exact. An unpivoted LDL^H sweep
    # of [gram | g1 | I], draws on the last axis, serves the whole chunk in each
    # numpy call; below pivot j, row i takes columns i..ne+1+j (the Schur
    # complement's upper triangle, g1, and L^{-1}). With pivots d and y = L^{-1}
    # g1, x = sum |y_i|^2/d_i and tr(gram^{-1}) = sum_ij |L^{-1}_ij|^2/d_i. As
    # cond(G) <= tr(G) tr(G^{-1}) for G Hermitian positive definite, rows with
    # d > 0 and a bound below _TRACE_LIMIT are kept: there the sweep agrees with
    # a pivoted LU to about 1e-11. All others (NaN too) get the exact rule.
    n, ne = g1.shape
    w = np.empty((ne, 2 * ne + 1, n), dtype=complex)
    w[:, :ne] = gram.transpose(1, 2, 0)
    w[:, ne] = g1.T
    w[:, ne + 1 :] = np.eye(ne)[:, :, None]
    with np.errstate(all="ignore"):
        for j in range(ne - 1):
            inv = 1.0 / w[j, j]
            for i in range(j + 1, ne):
                w[i, i : ne + 2 + j] -= (w[j, i].conj() * inv) * w[j, i : ne + 2 + j]
        d = w[range(ne), range(ne)].real
        x = (np.abs(w[:, ne]) ** 2 / d).sum(axis=0)
        inv_trace = sum((np.abs(w[i, ne + 1 :]) ** 2).sum(axis=0) / d[i] for i in range(ne))
        good = (d > 0).all(axis=0) & (np.einsum("nii->n", gram).real * inv_trace < _TRACE_LIMIT)
    flagged = ~good
    if flagged.any():
        x[flagged], good[flagged] = _mmse_exact(g1[flagged], gram[flagged])
    return x, good


def _mmse_exact(g1: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The discard rule itself: keep a row iff cond(gram) < COND_LIMIT (NaN fails too).
    good = np.linalg.cond(gram) < COND_LIMIT
    x = np.full(g1.shape[0], np.nan)
    if good.any():
        sol = np.linalg.solve(gram[good], g1[good][..., None])[..., 0]
        x[good] = np.einsum("ne,ne->n", g1[good].conj(), sol).real
    return x, good


def _stream(
    cfg: SystemConfig,
    p: float,
    n_samples: int,
    seed: int,
    step: Callable[[np.random.Generator, int], int],
) -> None:
    # The chunked draw loop: step(rng, nb) simulates nb draws from a fresh
    # substream of seed and returns how many it kept; chunks continue until
    # n_samples draws are kept. A chunk holds about _TARGET_CHUNK_ELEMENTS
    # eavesdropper entries, so memory stays flat as na and ne grow.
    if not _is_int(n_samples) or n_samples < 2:
        raise ValueError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    if not p > 0:
        raise ValueError(f"power must be positive, got {p!r}")
    chunk = max(2048, min(65536, _TARGET_CHUNK_ELEMENTS // (cfg.na * cfg.ne)))
    seq = np.random.SeedSequence(seed)
    remaining = n_samples
    while remaining > 0:
        rng = np.random.default_rng(seq.spawn(1)[0])
        remaining -= step(rng, min(chunk, remaining))


def mc_capacities(
    cfg: SystemConfig,
    p: float,
    split: PowerSplit,
    n_samples: int,
    seed: int = 0,
) -> tuple[McEstimate, McEstimate]:
    """Simulated (receiver capacity, eavesdropper capacity) in bits/use.

    Draws where the interference Gram is numerically unusable are
    discarded in pairs (both channels of that draw) and replaced from
    later substreams; the count is reported on both estimates. For iid
    Gaussian channels such draws are vanishingly rare.
    """
    mom1 = _Moments()
    mom2 = _Moments()
    discarded = 0
    sig_u2 = split.sigma_u2(p)
    ratio = (cfg.na - 1.0) / (split.z - 1.0)

    def step(rng: np.random.Generator, nb: int) -> int:
        nonlocal discarded
        h = _complex_gaussian(rng, (nb, cfg.na))
        # G stays unnamed, so it is freed before the solve, the peak stage.
        x, good = _sir_stat_batch(*_eve_mixed(h, _complex_gaussian(rng, (nb, cfg.ne, cfg.na))))
        kept = int(good.sum())
        discarded += nb - kept
        hn2 = np.einsum("ij,ij->i", h.conj(), h).real
        mom1.update(np.log1p(sig_u2 * hn2[good]) / LN2)
        mom2.update(np.log1p(ratio * x[good]) / LN2)
        return kept

    _stream(cfg, p, n_samples, seed, step)
    est1 = McEstimate(mom1.mean, mom1.stderr, mom1.n, seed, discarded)
    est2 = McEstimate(mom2.mean, mom2.stderr, mom2.n, seed, discarded)
    return est1, est2


def mc_secrecy_rate_imperfect(
    cfg: SystemConfig,
    p: float,
    split: PowerSplit,
    err: CsiError,
    n_samples: int,
    seed: int = 0,
) -> McEstimate:
    """Simulated secrecy rate under channel-estimation error, bits/use.

    The receiver side is simulated: the transmitter beamforms on an
    estimate of per-entry variance 1 - sigma_tilde2, and the estimation
    error adds an interference floor sigma_tilde2 * p + 1 to the noise.
    The eavesdropper term does not depend on the estimate and enters as
    its exact value, so mean may be negative; stderr covers the
    simulated side only. The same seed draws the same underlying unit
    Gaussians for every sigma_tilde2, making error levels comparable
    pathwise.
    """
    mom = _Moments()
    sig_u2 = split.sigma_u2(p)
    floor = err.sigma_tilde2 * p + 1.0

    def step(rng: np.random.Generator, nb: int) -> int:
        unit = _complex_gaussian(rng, (nb, cfg.na))
        hn2 = err.sigma_hat2 * np.einsum("ij,ij->i", unit.conj(), unit).real
        mom.update(np.log1p(sig_u2 * hn2 / floor) / LN2)
        return nb

    _stream(cfg, p, n_samples, seed, step)
    c2 = capacity_eve(cfg, split)
    return McEstimate(mom.mean - c2, mom.stderr, mom.n, seed, 0)
