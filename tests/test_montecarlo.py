"""Channel-simulation estimates against closed forms and distribution checks."""
import math
import sys
import threading
import time

import numpy as np
import pytest
from scipy import stats

from ansec import montecarlo
from ansec.montecarlo import (
    _TRACE_LIMIT,
    COND_LIMIT,
    ChannelDraw,
    GramConditionError,
    McEstimate,
    _complex_gaussian,
    _eve_mixed,
    _mmse_exact,
    _Moments,
    _null_space_frame,
    _sir_stat_batch,
    mc_capacities,
    mc_secrecy_rate_imperfect,
    sample_channel,
    sir_mmse,
)
from ansec.secrecy import (
    CsiError,
    PowerSplit,
    SystemConfig,
    capacity_bob,
    capacity_eve,
    ccdf_sir,
    secrecy_rate,
)

LN2 = math.log(2.0)


def _matmul_gram(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # g1 = G w1 and G G^H - g1 g1^H as one stacked matmul with conjugate copies
    w1 = h.conj() / np.linalg.norm(h, axis=1, keepdims=True)
    g1 = np.einsum("nek,nk->ne", g, w1)
    return g1, g @ g.conj().swapaxes(1, 2) - g1[:, :, None] * g1.conj()[:, None, :]


def _reference_stream(cfg, n_samples, seed, step):
    # the chunk loop as it ran before the draws moved to a worker thread: one
    # spawned substream per chunk, min(chunk, remaining) draws, each chunk whole
    chunk = max(2048, min(65536, montecarlo._TARGET_CHUNK_ELEMENTS // (cfg.na * cfg.ne)))
    seq, remaining = np.random.SeedSequence(seed), n_samples
    while remaining > 0:
        remaining -= step(np.random.default_rng(seq.spawn(1)[0]), min(chunk, remaining))


def _reference_capacities(cfg, p, split, n_samples, seed):
    mom1, mom2, discarded = _Moments(), _Moments(), [0]

    def step(rng, nb):
        h = _complex_gaussian(rng, (nb, cfg.na))
        x, good = _sir_stat_batch(*_eve_mixed(h, _complex_gaussian(rng, (nb, cfg.ne, cfg.na))))
        kept = int(good.sum())
        discarded[0] += nb - kept
        mom1.update(np.log1p(split.sigma_u2(p) * np.vecdot(h, h).real[good]) / LN2)
        mom2.update(np.log1p((cfg.na - 1.0) / (split.z - 1.0) * x[good]) / LN2)
        return kept

    _reference_stream(cfg, n_samples, seed, step)
    return (McEstimate(mom1.mean, mom1.stderr, mom1.n, seed, discarded[0]),
            McEstimate(mom2.mean, mom2.stderr, mom2.n, seed, discarded[0]))


def _reference_imperfect(cfg, p, split, err, n_samples, seed):
    mom = _Moments()

    def step(rng, nb):
        unit = _complex_gaussian(rng, (nb, cfg.na))
        hn2 = err.sigma_hat2 * np.vecdot(unit, unit).real
        mom.update(np.log1p(split.sigma_u2(p) * hn2 / (err.sigma_tilde2 * p + 1.0)) / LN2)
        return nb

    _reference_stream(cfg, n_samples, seed, step)
    return McEstimate(mom.mean - capacity_eve(cfg, split), mom.stderr, mom.n, seed, 0)


def _returns_within(seconds, call):
    # run call on a helper thread so that a deadlock fails the test instead of
    # hanging it; returns (seconds taken, exception raised or None)
    raised = []

    def run():
        try:
            call()
        except BaseException as exc:
            raised.append(exc)

    helper = threading.Thread(target=run, daemon=True)
    t0 = time.perf_counter()
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"the call did not return within {seconds} s"
    return time.perf_counter() - t0, (raised or [None])[0]


class TestTransmitFrame:
    @pytest.mark.parametrize("na,ne", [(2, 1), (4, 2), (6, 3), (8, 1), (3, 2)])
    def test_frame_invariants(self, na, ne):
        cfg = SystemConfig(na=na, ne=ne)
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = sample_channel(cfg, rng)
            assert abs(np.linalg.norm(d.w1) - 1.0) <= 1e-12
            gram = d.w2.conj().T @ d.w2
            assert np.max(np.abs(gram - np.eye(na - 1))) <= 1e-10
            assert np.max(np.abs(d.w1.conj() @ d.w2)) <= 1e-10

    def test_beamformer_is_matched(self):
        cfg = SystemConfig(na=5, ne=2)
        rng = np.random.default_rng(3)
        d = sample_channel(cfg, rng)
        want = d.h.conj() / np.linalg.norm(d.h)
        assert np.max(np.abs(d.w1 - want)) <= 1e-14

    def test_full_frame_is_unitary(self):
        cfg = SystemConfig(na=6, ne=2)
        rng = np.random.default_rng(5)
        d = sample_channel(cfg, rng)
        frame = np.column_stack([d.w1, d.w2])
        assert np.max(np.abs(frame.conj().T @ frame - np.eye(6))) <= 1e-12

    def test_shapes(self):
        d = sample_channel(SystemConfig(na=4, ne=3), np.random.default_rng(0))
        assert d.h.shape == (4,)
        assert d.g.shape == (3, 4)
        assert d.w1.shape == (4,)
        assert d.w2.shape == (4, 3)


class TestChannelDistribution:
    def test_gain_mean_three_sigma(self):
        n, na = 100_000, 4
        rng = np.random.default_rng(17)
        h = _complex_gaussian(rng, (n, na))
        gains = np.einsum("ij,ij->i", h.conj(), h).real
        stderr = gains.std(ddof=1) / math.sqrt(n)
        assert abs(gains.mean() - na) <= 3 * stderr

    def test_gain_is_gamma_distributed(self):
        # squared norm of 3 unit-variance complex entries ~ Gamma(3, 1)
        n = 1_000_000
        rng = np.random.default_rng(23)
        h = _complex_gaussian(rng, (n, 3))
        gains = np.einsum("ij,ij->i", h.conj(), h).real
        ks = stats.kstest(gains, "gamma", args=(3,)).statistic
        assert ks < 0.005

    def test_gain_gamma_through_public_sampler(self):
        cfg = SystemConfig(na=3, ne=1)
        rng = np.random.default_rng(29)
        gains = [np.vdot(d.h, d.h).real for d in (sample_channel(cfg, rng) for _ in range(20_000))]
        ks = stats.kstest(np.asarray(gains), "gamma", args=(3,)).statistic
        assert ks < 0.02

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (4096, 6), (2048, 5, 6)])
    def test_same_seed_same_draws(self, shape):
        # the draws are the literal expression bit for bit, for single-draw
        # and chunk shapes: a faster assembly may not change them
        got = _complex_gaussian(np.random.default_rng(37), shape)
        rng = np.random.default_rng(37)
        want = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_entry_variance_convention(self):
        # unit total variance: 1/2 per real component
        rng = np.random.default_rng(31)
        e = _complex_gaussian(rng, (200_000,))
        assert abs(e.real.var() - 0.5) < 0.01
        assert abs(e.imag.var() - 0.5) < 0.01
        assert abs(e.mean()) < 0.01


class TestSirStatistic:
    def test_single_eavesdropper_direct_formula(self):
        cfg = SystemConfig(na=4, ne=1)
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = sample_channel(cfg, rng)
            x = sir_mmse(d)
            direct = abs(np.dot(d.g[0], d.w1)) ** 2 / np.linalg.norm(d.g @ d.w2) ** 2
            assert abs(x - direct) <= 1e-12 * max(1.0, direct)

    def test_nonnegative(self):
        cfg = SystemConfig(na=5, ne=3)
        rng = np.random.default_rng(43)
        assert all(sir_mmse(sample_channel(cfg, rng)) >= 0.0 for _ in range(50))

    def test_degenerate_gram_raises(self):
        cfg = SystemConfig(na=4, ne=3)
        d = sample_channel(cfg, np.random.default_rng(47))
        g_bad = d.g.copy()
        g_bad[2] = g_bad[1]  # duplicated eavesdropper: singular interference Gram
        bad = ChannelDraw(h=d.h, g=g_bad, w1=d.w1, w2=d.w2)
        with pytest.raises(GramConditionError):
            sir_mmse(bad)

    def test_tail_matches_closed_ccdf(self):
        cfg = SystemConfig(na=4, ne=2)
        rng = np.random.default_rng(53)
        n = 250_000
        h = _complex_gaussian(rng, (n, cfg.na))
        g = _complex_gaussian(rng, (n, cfg.ne, cfg.na))
        x, good = _sir_stat_batch(*_eve_mixed(h, g))
        xs = np.sort(x[good])
        m = xs.size
        upper = 1.0 - np.arange(m) / m          # empirical P(X > x) just below each point
        lower = 1.0 - (np.arange(m) + 1.0) / m  # and just above
        closed = np.array([ccdf_sir(v, cfg) for v in xs])
        sup_dev = max(np.max(np.abs(closed - upper)), np.max(np.abs(closed - lower)))
        assert sup_dev < 0.01

    @pytest.mark.parametrize(
        "na,ne", [(2, 1), (4, 2), (6, 5), (8, 7), (64, 16), (8, 4), (3, 2)]
    )
    def test_projector_gram_matches_frame(self, na, ne):
        # g1 and G G^H - g1 g1^H against G w1 and (G W2)(G W2)^H from the
        # explicit Householder frame, over both triangles of the mirrored Gram.
        # At (2, 1) the Gram cancels when ||g2||^2 << |g1|^2, so the bound
        # scales with ||G||_F^2, not the Gram.
        rng = np.random.default_rng(59)
        h = _complex_gaussian(rng, (64, na))
        g = _complex_gaussian(rng, (64, ne, na))
        g1, gram = _eve_mixed(h, g)
        assert g1.shape == (64, ne) and gram.shape == (64, ne, ne)
        assert np.array_equal(np.tril(gram, -1), np.tril(gram.conj().swapaxes(1, 2), -1))
        for i in range(64):
            w1, w2 = _null_space_frame(h[i])
            g2 = g[i] @ w2
            norm2 = np.linalg.norm(g[i]) ** 2
            assert np.max(np.abs(g1[i] - g[i] @ w1)) <= 1e-13 * norm2
            assert np.max(np.abs(gram[i] - g2 @ g2.conj().T)) <= 1e-13 * norm2


class TestMcCapacities:
    def test_matches_closed_forms_three_sigma(self):
        cfg, p, s = SystemConfig(na=4, ne=2), 10.0, PowerSplit(0.5)
        est1, est2 = mc_capacities(cfg, p, s, n_samples=100_000, seed=7)
        assert abs(est1.mean - capacity_bob(cfg, p, s)) <= 3 * est1.stderr
        assert abs(est2.mean - capacity_eve(cfg, s)) <= 3 * est2.stderr

    def test_single_eavesdropper_leakage_mean(self):
        cfg, s = SystemConfig(na=2, ne=1), PowerSplit(0.5)
        _, est2 = mc_capacities(cfg, 5.0, s, n_samples=200_000, seed=13)
        assert abs(est2.mean - capacity_eve(cfg, s)) <= 3 * est2.stderr

    def test_deterministic_given_seed(self):
        cfg, p, s = SystemConfig(na=3, ne=2), 4.0, PowerSplit(0.4)
        a = mc_capacities(cfg, p, s, n_samples=30_000, seed=99)
        b = mc_capacities(cfg, p, s, n_samples=30_000, seed=99)
        assert a == b

    def test_seed_changes_estimate(self):
        cfg, p, s = SystemConfig(na=3, ne=2), 4.0, PowerSplit(0.4)
        a, _ = mc_capacities(cfg, p, s, n_samples=10_000, seed=1)
        b, _ = mc_capacities(cfg, p, s, n_samples=10_000, seed=2)
        assert a.mean != b.mean

    def test_vanishing_power(self):
        cfg, s = SystemConfig(na=4, ne=2), PowerSplit(0.5)
        est1, _ = mc_capacities(cfg, 1e-12, s, n_samples=5_000, seed=5)
        assert 0.0 <= est1.mean < 1e-10

    def test_bookkeeping_fields(self):
        cfg, p, s = SystemConfig(na=4, ne=2), 10.0, PowerSplit(0.5)
        est1, est2 = mc_capacities(cfg, p, s, n_samples=12_345, seed=21)
        for est in (est1, est2):
            assert isinstance(est, McEstimate)
            assert est.n_samples == 12_345
            assert est.seed == 21
            assert est.n_discarded == 0
            assert est.stderr > 0

    def test_spans_multiple_chunks(self):
        # n_samples above the internal chunk size exercises the merge path
        cfg, p, s = SystemConfig(na=64, ne=1), 10.0, PowerSplit(0.5)
        est1, _ = mc_capacities(cfg, p, s, n_samples=140_000, seed=3)
        assert est1.n_samples == 140_000
        assert abs(est1.mean - capacity_bob(cfg, p, s)) <= 4 * est1.stderr

    @pytest.mark.parametrize(
        "na,ne,seed,want",
        [(2, 1, 1, 1.1726301361866616), (64, 16, 2, 3.8838731813345166)],
    )
    def test_pinned_eavesdropper_estimates(self, na, ne, seed, want, monkeypatch):
        # each chunk's draws also go through an independent route in the same
        # run: g1 = G w1, a stacked matmul Gram and a pivoted LU solve. Only
        # rounding may separate the two estimates; want, the value the same
        # draws gave through the earlier einsum Gram and sweep, must agree too
        cfg, split = SystemConfig(na=na, ne=ne), PowerSplit(0.4)
        package_route, oracle_x = montecarlo._eve_mixed, []

        def both_routes(h, g):
            g1, gram = _matmul_gram(h, g)
            sol = np.linalg.solve(gram, g1[..., None])[..., 0]
            oracle_x.append(np.einsum("ne,ne->n", g1.conj(), sol).real)
            return package_route(h, g)

        monkeypatch.setattr(montecarlo, "_eve_mixed", both_routes)
        _, est2 = mc_capacities(cfg, 3.7, split, 100_000, seed)
        assert est2.n_discarded == 0  # so every oracle row is a kept draw
        ratio = (na - 1.0) / (split.z - 1.0)
        oracle = np.mean(np.log1p(ratio * np.concatenate(oracle_x))) / LN2
        assert est2.mean == pytest.approx(oracle, rel=1e-12, abs=0.0)
        assert est2.mean == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_sweep_estimate_matches_exact_route(self, monkeypatch):
        # the same draws with every row sent through the pivoted-LU discard
        # rule; the LDL^H sweep's rounding may move only the last digits
        cfg, p, s = SystemConfig(na=6, ne=5), 3.7, PowerSplit(0.4)
        _, est2 = mc_capacities(cfg, p, s, 100_000, seed=1)
        monkeypatch.setattr(montecarlo, "_sir_stat_batch", _mmse_exact)
        _, want = mc_capacities(cfg, p, s, 100_000, seed=1)
        assert est2.mean == pytest.approx(want.mean, rel=1e-12, abs=0.0)
        assert est2.n_discarded == want.n_discarded == 0

    def test_validation(self, monkeypatch):
        # every argument is checked before the draw worker would start
        def no_worker(thread):
            raise AssertionError("a worker started before the arguments were checked")

        monkeypatch.setattr(threading.Thread, "start", no_worker)
        cfg, s = SystemConfig(na=4, ne=2), PowerSplit(0.5)
        with pytest.raises(ValueError):
            mc_capacities(cfg, 10.0, s, n_samples=1, seed=0)
        with pytest.raises(ValueError):
            mc_capacities(cfg, 0.0, s, n_samples=100, seed=0)
        with pytest.raises(ValueError):
            mc_capacities(cfg, 10.0, s, n_samples=10.5, seed=0)
        with pytest.raises(ValueError):
            mc_capacities(cfg, 10.0, s, n_samples=True, seed=0)
        with pytest.raises(ValueError):
            mc_secrecy_rate_imperfect(cfg, 10.0, s, CsiError(0.1), n_samples=True, seed=0)
        # only an exact int >= 0 names a reproducible stream: None would draw
        # from OS entropy, True would run as 1
        for seed in (None, True, 1.5, -1, np.int64(1), "1"):
            with pytest.raises(ValueError, match="seed"):
                mc_capacities(cfg, 10.0, s, n_samples=100, seed=seed)
            with pytest.raises(ValueError, match="seed"):
                mc_secrecy_rate_imperfect(cfg, 10.0, s, CsiError(0.1), n_samples=100, seed=seed)


class TestDrawWorker:
    # A worker thread draws each chunk in _BLOCK-draw blocks, one chunk ahead,
    # while the caller solves the blocks; the estimates must be those of the
    # reference loop above, which draws and solves each chunk whole.

    @pytest.mark.parametrize(
        "na,ne,n,seed",
        [(4, 1, 4097, 1), (6, 5, 3 * 4096 + 17, 2), (3, 2, 100_000, 3), (8, 4, 140_000, 4),
         (64, 16, 20_000, 5)],
    )
    def test_equals_reference_loop(self, na, ne, n, seed):
        # block edges (4097, 3·4096 + 17), several chunks with a short tail
        # (100 000 and 140 000 at chunk 65 536), and 3 906-draw chunks at (64, 16)
        cfg, p, split, err = SystemConfig(na=na, ne=ne), 3.7, PowerSplit(0.4), CsiError(0.1)
        assert mc_capacities(cfg, p, split, n, seed) == _reference_capacities(cfg, p, split, n, seed)
        got = mc_secrecy_rate_imperfect(cfg, p, split, err, n, seed)
        assert got == _reference_imperfect(cfg, p, split, err, n, seed)

    @pytest.mark.parametrize("na,ne,n,seed", [(3, 2, 100_000, 6), (6, 5, 140_000, 8)])
    def test_forced_discards_equal_reference_loop(self, na, ne, n, seed, monkeypatch):
        # tight limits make draws fail the condition rule, so a later chunk's
        # size depends on earlier discards: the chunk drawn ahead at the size
        # it would have without them is drawn again, and a chunk past the
        # planned ones is drawn from the next substream
        monkeypatch.setattr(montecarlo, "COND_LIMIT", 1e4)
        monkeypatch.setattr(montecarlo, "_TRACE_LIMIT", 1e4)
        cfg, p, split, got = SystemConfig(na=na, ne=ne), 3.7, PowerSplit(0.4), []
        # a chunk the caller waits for but the worker never draws fails here
        _, exc = _returns_within(60.0, lambda: got.extend(mc_capacities(cfg, p, split, n, seed)))
        assert exc is None
        assert tuple(got) == _reference_capacities(cfg, p, split, n, seed)
        for est in got:
            assert est.n_samples == n
            assert est.n_discarded > 0

    def test_one_worker_per_call_and_none_after(self, monkeypatch):
        before, alive = threading.active_count(), []
        package_route = montecarlo._eve_mixed

        def counting(h, g):
            alive.append(threading.active_count())
            return package_route(h, g)

        monkeypatch.setattr(montecarlo, "_eve_mixed", counting)
        mc_capacities(SystemConfig(na=3, ne=2), 3.7, PowerSplit(0.4), 100_000, seed=1)
        assert len(alive) == 25 and set(alive) == {before + 1}  # 65 536 + 34 464 draws
        assert threading.active_count() == before

    def test_draw_buffer_kept_for_the_next_call(self):
        # a call draws into the buffer an earlier, larger call left, and what
        # that call drew there must not reach its estimates; a buffer past
        # _TARGET_CHUNK_ELEMENTS entries is not kept
        split = PowerSplit(0.4)
        mc_capacities(SystemConfig(na=6, ne=3), 3.7, split, 100_000, seed=4)  # 2·65536·6·4 entries
        spare, small = montecarlo._SPARE["draws"], SystemConfig(na=3, ne=2)
        assert mc_capacities(small, 3.7, split, 10_000, 1) == _reference_capacities(small, 3.7, split, 10_000, 1)
        assert montecarlo._SPARE["draws"] is spare
        mc_capacities(SystemConfig(na=64, ne=16), 3.7, split, 4_000, seed=1)  # 2·3906·64·17 entries
        assert montecarlo._SPARE["draws"].size == 0

    def test_solve_failure_reaches_caller(self, monkeypatch):
        package_route, calls = montecarlo._eve_mixed, []

        def third_block_fails(h, g):
            calls.append(len(h))
            if len(calls) == 3:
                raise RuntimeError("planted solve failure")
            return package_route(h, g)

        monkeypatch.setattr(montecarlo, "_eve_mixed", third_block_fails)
        before = threading.active_count()
        cfg, split = SystemConfig(na=6, ne=5), PowerSplit(0.4)
        took, exc = _returns_within(10.0, lambda: mc_capacities(cfg, 3.7, split, 140_000, 1))
        assert isinstance(exc, RuntimeError) and "planted" in str(exc)
        assert took < 1.0  # the worker stops at its next block, mid-chunk
        assert threading.active_count() == before

    def test_concurrent_calls_under_fast_switching(self, monkeypatch):
        # four calls at once, each with its own worker, while the interpreter
        # switches threads every 10 us. Small blocks and tight limits put every
        # call through both buffers, many blocks per chunk and a redrawn chunk,
        # and the calls pass the kept draw buffer among them: a buffer refilled
        # before its caller is done with it, or a block read before it is
        # drawn, would change an estimate
        monkeypatch.setattr(montecarlo, "_BLOCK", 512)
        monkeypatch.setattr(montecarlo, "COND_LIMIT", 1e3)
        monkeypatch.setattr(montecarlo, "_TRACE_LIMIT", 1e3)
        cfg, split, seeds, n = SystemConfig(na=3, ne=2), PowerSplit(0.4), range(4), 70_000
        want = [_reference_capacities(cfg, 3.7, split, n, seed) for seed in seeds]
        got = {}

        def calls():
            threads = [threading.Thread(target=lambda seed=seed: got.update(
                {seed: mc_capacities(cfg, 3.7, split, n, seed)})) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _, exc = _returns_within(60.0, calls)
        finally:
            sys.setswitchinterval(interval)
        assert exc is None
        assert [got.get(seed) for seed in seeds] == want
        assert all(est.n_discarded > 0 for est, _ in want)

    @pytest.mark.parametrize("fail_at", [1, 70])
    def test_draw_failure_reaches_caller(self, fail_at, monkeypatch):
        # call 1 fails before any block lands; call 70 falls in the second
        # chunk, drawn ahead while the caller solves the first (4 parts of 16
        # blocks)
        package_draw, calls = montecarlo._draw, []

        def failing_draw(rng, out):
            calls.append(out.size)
            if len(calls) == fail_at:
                raise MemoryError("planted draw failure")
            package_draw(rng, out)

        monkeypatch.setattr(montecarlo, "_draw", failing_draw)
        before = threading.active_count()
        cfg, split = SystemConfig(na=3, ne=2), PowerSplit(0.4)
        took, exc = _returns_within(10.0, lambda: mc_capacities(cfg, 3.7, split, 100_000, 1))
        assert isinstance(exc, MemoryError) and "planted" in str(exc)
        assert len(calls) == fail_at
        assert took < 1.0
        assert threading.active_count() == before


class TestMoments:
    def test_matches_numpy_on_fixed_data(self):
        rng = np.random.default_rng(61)
        data = rng.normal(size=1000)
        mom = _Moments()
        mom.update(data)
        assert abs(mom.mean - data.mean()) <= 1e-12
        want_se = data.std(ddof=1) / math.sqrt(data.size)
        assert abs(mom.stderr - want_se) <= 1e-12

    def test_chunked_merge_equals_single_pass(self):
        rng = np.random.default_rng(67)
        data = rng.exponential(size=4096)
        one = _Moments()
        one.update(data)
        many = _Moments()
        for part in np.array_split(data, 7):
            many.update(part)
        assert abs(one.mean - many.mean) <= 1e-12
        assert abs(one.stderr - many.stderr) <= 1e-12

    def test_degenerate_counts(self):
        mom = _Moments()
        assert mom.n == 0
        mom.update(np.array([2.0]))
        assert mom.mean == 2.0
        assert math.isinf(mom.stderr)


class TestImperfectCsiEstimate:
    def test_zero_error_consistent_with_capacity_route(self):
        cfg, p, s = SystemConfig(na=4, ne=2), 10.0, PowerSplit(0.5)
        est = mc_secrecy_rate_imperfect(cfg, p, s, CsiError(0.0), n_samples=50_000, seed=31)
        est1, est2 = mc_capacities(cfg, p, s, n_samples=50_000, seed=131)
        other = est1.mean - capacity_eve(cfg, s)
        tol = 3 * math.hypot(est.stderr, est1.stderr)
        assert abs(est.mean - other) <= tol

    def test_three_sigma_against_closed_form(self):
        cfg, p, s = SystemConfig(na=6, ne=2), 20.0, PowerSplit(0.5)
        err = CsiError(0.1)
        est = mc_secrecy_rate_imperfect(cfg, p, s, err, n_samples=100_000, seed=37)
        from ansec.secrecy import secrecy_rate

        rep = secrecy_rate(cfg, p, s, err)
        assert abs(est.mean - (rep.c1 - rep.c2)) <= 3 * est.stderr

    def test_paired_seeds_monotone_in_error(self):
        # shared channel draws make the degradation pathwise, hence strict
        cfg, p, s = SystemConfig(na=4, ne=1), 10.0, PowerSplit(0.5)
        means = [
            mc_secrecy_rate_imperfect(cfg, p, s, CsiError(s2), n_samples=20_000, seed=41).mean
            for s2 in (0.0, 0.1, 0.2, 0.4)
        ]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_deterministic_given_seed(self):
        cfg, p, s = SystemConfig(na=4, ne=1), 10.0, PowerSplit(0.5)
        kw = dict(n_samples=10_000, seed=43)
        a = mc_secrecy_rate_imperfect(cfg, p, s, CsiError(0.2), **kw)
        b = mc_secrecy_rate_imperfect(cfg, p, s, CsiError(0.2), **kw)
        assert a == b

    def test_mean_not_clamped(self):
        # below the critical power the rate estimate must go negative,
        # otherwise stderr-based comparisons against closed forms are biased
        cfg, p, s = SystemConfig(na=2, ne=1), 1.0, PowerSplit(0.5)
        est = mc_secrecy_rate_imperfect(cfg, p, s, CsiError(0.0), n_samples=20_000, seed=47)
        assert est.mean < 0.0


class TestBatchGuards:
    def test_singular_grams_are_masked_not_raised(self):
        cfg = SystemConfig(na=4, ne=2)
        rng = np.random.default_rng(71)
        h = _complex_gaussian(rng, (64, cfg.na))
        g = _complex_gaussian(rng, (64, cfg.ne, cfg.na))
        g[5, 1] = g[5, 0]  # duplicated eavesdropper: singular interference Gram
        x, good = _sir_stat_batch(*_eve_mixed(h, g))
        assert not good[5]
        assert good.sum() == 63
        assert np.isfinite(x[good]).all()

    def test_condition_limit_is_strict(self):
        assert COND_LIMIT == 1e12

    @pytest.mark.parametrize("ne", [2, 5, 16])
    def test_mask_equals_exact_condition_rule(self, ne):
        # Hermitian Grams U diag(lam) U^H with known spectra: conditions
        # across 1e9..1e18, straddling COND_LIMIT, plus rank-deficient rows
        rng = np.random.default_rng(73 + ne)
        conds = np.concatenate([np.geomspace(1e9, 1e18, 37), [0.99e12, 1.01e12, 0.999e12, 1.001e12]])
        grams = []
        for c in conds:
            for lam in (np.geomspace(1.0, 1.0 / c, ne), np.r_[np.ones(ne - 1), 1.0 / c]):
                q, _ = np.linalg.qr(_complex_gaussian(rng, (ne, ne)))
                scale = 10.0 ** rng.uniform(-3, 3)
                grams.append(scale * (q * lam) @ q.conj().T)
        # within 1e-4 of the limit, with spectra whose trace bound exceeds
        # cond by under 1e-4: only a margin below COND_LIMIT keeps these exact
        for c in COND_LIMIT * (1.0 + np.linspace(-1e-4, 1e-4, 101)):
            q, _ = np.linalg.qr(_complex_gaussian(rng, (ne, ne)))
            lam = np.r_[1.0, np.full(ne - 2, c**-0.5), 1.0 / c]
            grams.append((q * lam) @ q.conj().T)
        for k in range(1, ne):
            q, _ = np.linalg.qr(_complex_gaussian(rng, (ne, ne)))
            lam = np.r_[np.ones(k), np.zeros(ne - k)]
            grams.append((q * lam) @ q.conj().T)
        gram = np.stack(grams)
        g1 = _complex_gaussian(rng, (gram.shape[0], ne))
        c = np.linalg.cond(gram)
        want = np.isfinite(c) & (c < COND_LIMIT)
        assert 0 < want.sum() < want.size
        # each row is also checked alone, so no row's result may depend on
        # the other rows of its stack
        alone = [_sir_stat_batch(g1[i : i + 1], gram[i : i + 1]) for i in range(gram.shape[0])]
        for x, good in [_sir_stat_batch(g1, gram), tuple(map(np.concatenate, zip(*alone)))]:
            assert np.array_equal(good, want)
            assert np.isnan(x[~good]).all()
            ref = [np.vdot(g1[i], np.linalg.solve(gram[i], g1[i])).real for i in np.flatnonzero(good)]
            np.testing.assert_allclose(x[good], ref, rtol=1e-9)

    def test_zero_eavesdropper_block_masks_only_its_row(self):
        # an all-zero Gram gives a zero first pivot and a NaN row in the
        # sweep; the exact rule then decides that row alone
        cfg = SystemConfig(na=5, ne=3)
        rng = np.random.default_rng(79)
        h = _complex_gaussian(rng, (48, cfg.na))
        g = _complex_gaussian(rng, (48, cfg.ne, cfg.na))
        g[17] = 0.0
        x, good = _sir_stat_batch(*_eve_mixed(h, g))
        assert np.flatnonzero(~good).tolist() == [17]
        for i in np.flatnonzero(good):
            w1, w2 = _null_space_frame(h[i])
            g1, g2 = g[i] @ w1, g[i] @ w2
            want = np.vdot(g1, np.linalg.solve(g2 @ g2.conj().T, g1)).real
            assert x[i] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("ne", [2, 5, 16])
    def test_rows_past_trace_limit_get_the_exact_rule(self, ne):
        # random Grams stay in the sweep; Grams of condition 1e6..1e16 have a
        # trace bound of at least _TRACE_LIMIT and leave it
        rng = np.random.default_rng(83 + ne)
        g = _complex_gaussian(rng, (40, ne, ne + 3))
        gram = g @ g.conj().swapaxes(1, 2)
        for i, c in enumerate(np.geomspace(_TRACE_LIMIT, 1e16, 20)):
            q, _ = np.linalg.qr(_complex_gaussian(rng, (ne, ne)))
            gram[2 * i] = (q * np.geomspace(1.0, 1.0 / c, ne)) @ q.conj().T
        g1 = _complex_gaussian(rng, (40, ne))
        x, good = _sir_stat_batch(g1, gram)
        far = np.arange(0, 40, 2)
        want_x, want_good = _mmse_exact(g1[far], gram[far])
        assert np.array_equal(x[far], want_x, equal_nan=True)
        assert np.array_equal(good[far], want_good)
        assert 0 < want_good.sum() < far.size
        assert good[1::2].all()

    def test_single_eavesdropper_chunk_calls_no_linalg(self, monkeypatch):
        rng = np.random.default_rng(89)
        h, g = _complex_gaussian(rng, (4096, 3)), _complex_gaussian(rng, (4096, 1, 3))
        g1, gram = _eve_mixed(h, g)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg was called")

        for name in np.linalg.__all__:
            member = getattr(np.linalg, name)
            if callable(member) and not isinstance(member, type):
                monkeypatch.setattr(np.linalg, name, refuse)
        x, good = _sir_stat_batch(g1, gram)
        monkeypatch.undo()
        assert good.all()
        np.testing.assert_allclose(x, np.abs(g1[:, 0]) ** 2 / gram[:, 0, 0].real, rtol=1e-15)
