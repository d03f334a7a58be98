"""Monte Carlo cross-check of the closed forms by direct channel simulation.

Nothing here reuses the analytic capacity expressions (the imperfect-CSI
routine subtracts the closed eavesdropper term, which is exact): channels
are drawn as iid circularly symmetric complex Gaussians, and the
eavesdroppers' combined SIR is the MMSE quadratic form against their
interference Gram matrix: batched draws build its upper triangle row by row, draws
last, and solve it by an LDL^H sweep that fills only what it reads; single draws by LU.
Estimates stream through a merged-moments accumulator in fixed-size chunks with one spawned
substream per chunk, so a given (seed, n_samples, configuration) reproduces bit-for-bit. A
worker thread draws one chunk ahead, again from the same substream if discards resize it,
while the caller solves the current chunk in blocks; the estimates are those of whole chunks.
"""
from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .secrecy import LN2, CsiError, PowerSplit, SystemConfig, _is_int, capacity_eve

COND_LIMIT = 1e12  # Gram matrices at or above this are discarded and redrawn
_TRACE_LIMIT = 1e6  # tr(G) tr(G^-1) at which a row leaves the sweep for the exact rule
_TARGET_CHUNK_ELEMENTS = 4_000_000
_BLOCK = 4096  # draws the worker posts at a time and the caller solves at a time
_SPARE: dict[str, np.ndarray] = {}  # an idle draw buffer (dict.pop is atomic across threads)


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
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

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


def _draw(rng: np.random.Generator, out: np.ndarray) -> None:
    # One part of unit-variance circularly symmetric entries: var 1/2, in place.
    np.multiply(rng.standard_normal(out.shape), math.sqrt(0.5), out=out)


def _complex_gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # Real part drawn first; a draw in row blocks, part by part, gives the same values.
    z = np.empty(shape, dtype=complex)
    _draw(rng, z.real)
    _draw(rng, z.imag)
    return z


def _null_space_frame(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Householder completion of the matched beamformer to a unitary frame.
    na = h.shape[0]
    w1 = h.conj() / np.linalg.norm(h)
    lead = w1[0]
    s = lead / abs(lead) if lead != 0 else 1.0 + 0.0j
    v = w1.copy()
    v[0] += s
    reflector = np.eye(na, dtype=complex) - (2.0 / np.vdot(v, v).real) * np.outer(v, v.conj())
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
    g1, g2 = draw.g @ draw.w1, draw.g @ draw.w2
    x, good = _mmse_exact(g1[None], (g2 @ g2.conj().T)[None])
    if not good[0]:
        raise GramConditionError(f"interference Gram condition is not below {COND_LIMIT:.0e}")
    return float(x[0])


def _eve_mixed(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Batched g1 = G w1 and Gram G2 G2^H. W2 enters only through its projector
    # W2 W2^H = I - w1 w1^H, so G2 G2^H = G G^H - g1 g1^H and W2 is never built.
    # np.vecdot conjugates in its kernel, so h and G are not copied; Gram row e is
    # one call over columns f >= e, written draws-last, and the rest its mirror.
    n, ne, _ = g.shape
    g1 = np.vecdot(h[:, None], g, out=np.empty((ne, n), dtype=complex).T)
    g1 /= np.sqrt(np.vecdot(h, h).real)[:, None]
    gram = np.empty((ne, ne, n), dtype=complex)
    for e in range(ne):
        np.vecdot(g[:, e:], g[:, e : e + 1], out=gram[e, e:].T)
        gram[e, e:] -= g1.T[e] * g1.T[e:].conj()
        gram[e + 1 :, e] = gram[e, e + 1 :].conj()
    return g1, gram.transpose(2, 0, 1)


def _sir_stat_batch(g1: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # MMSE form g1^H gram^{-1} g1 per row, with the mask of rows whose Gram
    # passes the exact COND_LIMIT rule of _mmse_exact. An unpivoted LDL^H sweep
    # of [gram | g1 | I], draws on the last axis, serves the whole chunk in each
    # numpy call; below pivot j, row i takes columns i..ne+1+j (the Schur
    # complement's upper triangle, g1, and L^{-1}), and only those are filled.
    # With pivots d and y = L^{-1} g1, x = sum |y_i|^2/d_i and tr(gram^{-1}) =
    # sum_{j<=i} |L^{-1}_ij|^2/d_i. As cond(G) <= tr(G) tr(G^{-1}) for G Hermitian
    # positive definite, rows with d > 0 and a bound below _TRACE_LIMIT are kept,
    # agreeing with a pivoted LU to about 1e-11; others (NaN too) get the exact rule.
    n, ne = g1.shape
    w = np.empty((ne, 2 * ne + 1, n), dtype=complex)
    for i in range(ne):  # L^{-1} starts as I
        w[i, i:ne] = gram[:, i, i:].T
        w[i, ne + 1 : ne + 2 + i] = np.eye(ne)[i, : i + 1, None]
    w[:, ne] = g1.T
    with np.errstate(all="ignore"):
        for j in range(ne - 1):
            inv = 1.0 / w[j, j]
            for i in range(j + 1, ne):
                w[i, i : ne + 2 + j] -= (w[j, i].conj() * inv) * w[j, i : ne + 2 + j]
        d = w[range(ne), range(ne)].real
        x = (np.abs(w[:, ne]) ** 2 / d).sum(axis=0)
        inv_trace = sum((np.abs(w[i, ne + 1 : ne + 2 + i]) ** 2).sum(0) / d[i] for i in range(ne))
        good = (d > 0).all(axis=0) & (np.einsum("nii->n", gram).real * inv_trace < _TRACE_LIMIT)
    flagged = ~good
    if flagged.any():
        x[flagged], good[flagged] = _mmse_exact(g1[flagged], gram[flagged])
    return x, good


def _mmse_exact(g1: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The discard rule itself: keep a row iff cond(gram) < COND_LIMIT (NaN fails too).
    good = np.linalg.cond(gram) < COND_LIMIT
    if good.all():
        return np.vecdot(g1, np.linalg.solve(gram, g1[..., None])[..., 0]).real, good
    x = np.full(g1.shape[0], np.nan)
    x[good] = _mmse_exact(g1[good], gram[good])[0]
    return x, good


def _stream(cfg: SystemConfig, p: float, n_samples: int, seed: int, ne: int,
            step: Callable[[np.ndarray, np.ndarray, Iterator[tuple[int, int]]], int]) -> None:
    # Chunk k holds nb = min(chunk, draws still needed) draws of h (nb, na) and G (nb, ne, na),
    # about _TARGET_CHUNK_ELEMENTS entries of G, from the k-th spawned substream of seed;
    # step(h, G, blocks) returns how many it kept. A worker that only draws (errstate is per
    # thread) fills two chunk buffers in turn and posts each _BLOCK draws of G's imaginary
    # part, drawn last, for blocks to yield. Both buffers share one array, kept for the next
    # call when at most _TARGET_CHUNK_ELEMENTS, so its pages need not be faulted in again.
    for name, value, low in (("n_samples", n_samples, 2), ("seed", seed, 0)):
        if not _is_int(value) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    if not p > 0:
        raise ValueError(f"power must be positive, got {p!r}")
    chunk = min(n_samples, max(2048, min(65536, _TARGET_CHUNK_ELEMENTS // (cfg.na * cfg.ne))))
    nh, size = chunk * cfg.na, chunk * cfg.na * (1 + ne)  # a chunk's h, then its G
    if (flat := _SPARE.pop("draws", None)) is None or flat.size < 2 * size:
        flat = np.empty(2 * size, complex)
    bufs = [(b[:nh].reshape(chunk, cfg.na), b[nh:].reshape(chunk, ne, cfg.na))
            for b in flat[: 2 * size].reshape(2, size)]
    jobs, ready, stop = queue.SimpleQueue(), queue.SimpleQueue(), threading.Event()

    def work() -> None:
        try:
            for k, nb in iter(jobs.get, None):
                h, g = (b[:nb] for b in bufs[k % 2])
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
                for i, part in enumerate((h.real, h.imag, g.real, g.imag)):
                    for lo in range(0, nb, _BLOCK):
                        if stop.is_set():
                            return
                        _draw(rng, part[lo : lo + _BLOCK])
                        if i == 3:
                            ready.put((k, nb, lo, min(lo + _BLOCK, nb)))
                ready.put((k, nb))  # the end of chunk k
        except BaseException as exc:  # handed to the caller, which raises it
            ready.put(exc)

    def blocks(k: int, nb: int) -> Iterator[tuple[int, int]]:
        for msg in iter(ready.get, (k, nb)):
            if isinstance(msg, BaseException):
                raise msg
            if msg[:2] == (k, nb):  # else a lookahead drawn at a stale size
                yield msg[2:]

    (worker := threading.Thread(target=work, name="ansec-mc-draws", daemon=True)).start()
    try:
        k, remaining, ahead = 0, n_samples, 0
        while remaining > 0:
            if (nb := min(chunk, remaining)) != ahead:  # the first chunk, or a stale lookahead
                jobs.put((k, nb))
            jobs.put((k + 1, ahead := min(chunk, remaining - nb)))  # as if chunk k keeps all
            remaining -= step(*(b[:nb] for b in bufs[k % 2]), blocks(k, nb))
            k += 1
    finally:
        stop.set()
        jobs.put(None)
        worker.join()
    _SPARE["draws"] = flat if flat.size <= _TARGET_CHUNK_ELEMENTS else np.empty(0, complex)


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
    mom1, mom2 = _Moments(), _Moments()
    discarded = 0
    sig_u2 = split.sigma_u2(p)
    ratio = (cfg.na - 1.0) / (split.z - 1.0)

    def step(h: np.ndarray, g: np.ndarray, blocks: Iterator[tuple[int, int]]) -> int:
        nonlocal discarded
        solved = [_sir_stat_batch(*_eve_mixed(h[lo:hi], g[lo:hi])) for lo, hi in blocks]
        x, good = (np.concatenate(v) for v in zip(*solved))
        kept = int(good.sum())
        discarded += len(h) - kept
        mom1.update(np.log1p(sig_u2 * np.vecdot(h, h).real[good]) / LN2)
        mom2.update(np.log1p(ratio * x[good]) / LN2)
        return kept

    _stream(cfg, p, n_samples, seed, cfg.ne, step)
    return (McEstimate(mom1.mean, mom1.stderr, mom1.n, seed, discarded),
            McEstimate(mom2.mean, mom2.stderr, mom2.n, seed, discarded))


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

    def step(unit: np.ndarray, _: np.ndarray, blocks: Iterator[tuple[int, int]]) -> int:
        list(blocks)  # the chunk is whole once its last block lands
        mom.update(np.log1p(sig_u2 * (err.sigma_hat2 * np.vecdot(unit, unit).real) / floor) / LN2)
        return len(unit)

    _stream(cfg, p, n_samples, seed, 0, step)
    c2 = capacity_eve(cfg, split)
    return McEstimate(mom.mean - c2, mom.stderr, mom.n, seed, 0)
