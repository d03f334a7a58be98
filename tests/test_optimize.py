"""Power-split optimization, high-SNR roots, and critical-SNR solvers."""
import logging
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special

import ansec.optimize
from ansec.optimize import (
    _PHI_GRID,
    _eve_on_grid,
    _laguerre_rule,
    CriticalSnr,
    OptResult,
    critical_snr,
    critical_snr_exact,
    critical_snr_upper_bound,
    from_db,
    high_snr_optimal_z,
    optimize_phi,
    optimize_phi_adaptive,
    to_db,
)
from ansec.secrecy import (
    LN2,
    CsiError,
    PowerSplit,
    SystemConfig,
    capacity_bob,
    capacity_eve,
    secrecy_rate,
)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


class TestDbConversions:
    @pytest.mark.parametrize("p", [1e-6, 0.5, 1.0, 10.0, 123.456, 1e9])
    def test_round_trip(self, p):
        assert rel_err(from_db(to_db(p)), p) < 1e-12

    def test_known_points(self):
        assert to_db(1.0) == 0.0
        assert to_db(100.0) == 20.0
        assert rel_err(from_db(3.01), 10.0 ** 0.301) < 1e-15

    def test_infinity_passes_through(self):
        assert to_db(math.inf) == math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            to_db(0.0)
        with pytest.raises(ValueError):
            to_db(-3.0)


class TestOptimizePhi:
    def test_two_antennas_high_snr(self):
        res = optimize_phi(SystemConfig(na=2), 1e3)
        assert abs(res.phi_star - 0.5) <= 0.01
        assert res.converged
        assert res.iterations > 0

    def test_many_antennas_high_snr(self):
        res = optimize_phi(SystemConfig(na=64), 1e3)
        assert abs(res.phi_star - 0.55) <= 0.01

    @pytest.mark.parametrize("err", [None, CsiError(0.0)])
    def test_infinite_power_needs_estimation_error(self, err):
        # specfun used to raise "the scaled sum needs x > 0, got x=0.0"
        with pytest.raises(ValueError, match=r"power inf needs a channel-estimation error"):
            optimize_phi(SystemConfig(na=4), math.inf, err)

    def test_infinite_power_with_estimation_error(self):
        # the capacity ceiling that critical_snr_exact probes, maximized over phi
        res = optimize_phi(SystemConfig(na=4), math.inf, CsiError(0.1))
        assert res.converged
        assert abs(res.phi_star - 0.5174) <= 5e-5 and abs(res.c_star - 3.0639) <= 5e-5
        assert res.c_star > optimize_phi(SystemConfig(na=4), 1e6, CsiError(0.1)).c_star

    def test_result_is_self_consistent(self):
        cfg, p = SystemConfig(na=8, ne=2), 50.0
        res = optimize_phi(cfg, p)
        assert abs(res.z_star * res.phi_star - 1.0) <= 1e-12
        again = secrecy_rate(cfg, p, PowerSplit(res.phi_star)).c
        assert rel_err(res.c_star, again) < 1e-12

    def test_matches_dense_grid_scan(self):
        # colluding-eavesdropper case favors spending more power on noise
        cfg, p = SystemConfig(na=16, ne=4), 100.0
        res = optimize_phi(cfg, p)
        assert res.phi_star < 0.5
        best_c, best_phi = -1.0, 0.0
        for i in range(1, 2000):
            phi = i / 2000.0
            c = secrecy_rate(cfg, p, PowerSplit(phi)).c
            if c > best_c:
                best_c, best_phi = c, phi
        assert abs(res.phi_star - best_phi) <= 1e-3
        assert res.c_star >= best_c - 1e-12

    def test_below_critical_power(self):
        res = optimize_phi(SystemConfig(na=2), from_db(1.0))
        assert res.c_star == 0.0
        assert not res.converged

    def test_imperfect_csi_lowers_optimum(self):
        cfg, p = SystemConfig(na=6), 100.0
        clean = optimize_phi(cfg, p)
        noisy = optimize_phi(cfg, p, err=CsiError(0.1))
        assert noisy.c_star < clean.c_star
        again = secrecy_rate(cfg, p, PowerSplit(noisy.phi_star), CsiError(0.1)).c
        assert rel_err(noisy.c_star, again) < 1e-12

    def test_power_validation(self):
        with pytest.raises(ValueError):
            optimize_phi(SystemConfig(na=4), 0.0)

    def test_beats_nearby_splits(self):
        cfg, p = SystemConfig(na=4, ne=2), 30.0
        res = optimize_phi(cfg, p)
        for d in (-0.003, -0.001, 0.001, 0.003):
            assert res.c_star >= secrecy_rate(cfg, p, PowerSplit(res.phi_star + d)).c - 1e-12


class TestAdaptiveSplit:
    def test_close_to_fixed_split_at_moderate_snr(self):
        cfg, p = SystemConfig(na=4), 10.0
        fixed = optimize_phi(cfg, p).c_star
        adaptive = optimize_phi_adaptive(cfg, p)
        assert abs(adaptive - fixed) < 0.02

    @pytest.mark.parametrize(
        "na,p_db", [(2, 20.0), (4, 10.0), (8, 20.0), (2, 5.0), (6, 15.0)]
    )
    def test_dominates_fixed_split(self, na, p_db):
        cfg, p = SystemConfig(na=na), from_db(p_db)
        fixed = optimize_phi(cfg, p).c_star
        adaptive = optimize_phi_adaptive(cfg, p)
        assert adaptive >= fixed - 1e-9

    def test_strict_gain_near_critical_power(self):
        # per-realization splitting keeps earning rate where the fixed split stalls
        cfg, p = SystemConfig(na=2), from_db(5.0)
        fixed = optimize_phi(cfg, p).c_star
        adaptive = optimize_phi_adaptive(cfg, p)
        assert adaptive > fixed + 0.05

    def test_quadrature_refinement_is_stable(self):
        cfg, p = SystemConfig(na=4), 10.0
        a64 = optimize_phi_adaptive(cfg, p, quadrature_order=64)
        a96 = optimize_phi_adaptive(cfg, p, quadrature_order=96)
        assert abs(a64 - a96) < 1e-6

    def test_order_validation(self):
        with pytest.raises(ValueError):
            optimize_phi_adaptive(SystemConfig(na=4), 10.0, quadrature_order=1)
        with pytest.raises(ValueError):
            optimize_phi_adaptive(SystemConfig(na=4), 10.0, quadrature_order=64.0)
        with pytest.raises(ValueError):
            optimize_phi_adaptive(SystemConfig(na=4), 10.0, quadrature_order=True)
        with pytest.raises(ValueError, match=r"\[2, 1024\]"):
            optimize_phi_adaptive(SystemConfig(na=4), 10.0, quadrature_order=1025)

    def test_infinite_power_names_the_missing_error(self):
        # the sum used to come back inf without complaint
        with pytest.raises(ValueError, match=r"finite without a channel-estimation error, got inf"):
            optimize_phi_adaptive(SystemConfig(na=4), math.inf)

    def test_overflowing_gain_names_power_and_node(self):
        # p times the largest of the 64 nodes (240.59 at na = 4) overflows from
        # about 7.5e305 on; the sum used to come back inf with a numpy warning
        cfg = SystemConfig(4, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert optimize_phi_adaptive(cfg, 3e305) == 1013.4946540299713
            with pytest.raises(ValueError, match=r"got 1e\+306; times the largest Laguerre "
                                                 r"node 240\.59\d* it is inf"):
                optimize_phi_adaptive(cfg, 1e306)


class TestLaguerreRule:
    # Golub-Welsch on the Laguerre Jacobi matrix, normalized to the
    # Gamma(alpha+1, 1) expectation; scipy's weights overflow from alpha = 171

    @pytest.mark.parametrize("alpha", [0, 63, 171, 255])
    def test_moments(self, alpha):
        nodes, weights = _laguerre_rule(64, alpha)
        for j in range(4):
            want = math.prod(range(alpha + 1, alpha + 1 + j))  # (alpha+1)_j
            got = math.fsum(w * g ** j for g, w in zip(nodes, weights))
            assert rel_err(got, want) <= 1e-13, (alpha, j)

    @pytest.mark.parametrize("order", [2, 16, 64])
    def test_nodes_against_scipy(self, order):
        for alpha in (0, 1, 7, 63, 170):
            want = special.roots_genlaguerre(order, alpha)[0]
            got = _laguerre_rule(order, alpha)[0]
            assert max(rel_err(g, w) for g, w in zip(got, want)) <= 1e-13, alpha


class TestEveGridTable:
    @pytest.mark.parametrize("na,ne", [(2, 1), (8, 1), (64, 1), (3, 2), (8, 5)])
    def test_matches_direct_evaluation_exactly(self, na, ne):
        cfg = SystemConfig(na=na, ne=ne)
        want = [capacity_eve(cfg, PowerSplit(phi)) for phi in _PHI_GRID]
        assert list(_eve_on_grid(na, ne)) == want

    def test_adaptive_reuses_the_table(self, monkeypatch):
        calls = 0
        original = ansec.optimize.capacity_eve

        def counting(cfg, split):
            nonlocal calls
            calls += 1
            return original(cfg, split)

        _eve_on_grid.cache_clear()
        monkeypatch.setattr(ansec.optimize, "capacity_eve", counting)
        optimize_phi_adaptive(SystemConfig(2), from_db(6.3))
        # one 65-point table plus the rate at each solved node's root: 28 calls,
        # as the certified stop solves 32 of the 64 Laguerre nodes here and 4 of
        # those have no positive gap. Rebuilding the table at every node cost
        # about 4.2k calls, and golden section on rate values took about 1.5k
        assert calls <= 65 + 32

    # The same 64-node Laguerre rule with every inner maximum found by a
    # 400-point log grid in z plus golden section to 1e-11, on C2 from
    # mpmath hyp2f1 at 30 digits with C(na-1, k) B(k+1, na-1-k) weights.
    ADAPTIVE_ORACLE = {
        (2, 1, 6.3): 0.84008642249550665545,
        (3, 2, 12.3): 1.8034387707621540427,
        (64, 1, 21.3): 11.212094229318830181,
    }

    @pytest.mark.parametrize(
        "na,ne,p_db,earlier",
        [
            # values of an earlier C2 kernel (direct series, log-domain beta
            # weights); the solver must stay within 1e-10 of them
            (2, 1, 6.3, 0.8400864224955047),
            (3, 2, 12.3, 1.8034387707621522),
            (64, 1, 21.3, 11.212094229318819),
        ],
    )
    def test_adaptive_values_pinned(self, na, ne, p_db, earlier):
        _eve_on_grid.cache_clear()
        got = optimize_phi_adaptive(SystemConfig(na, ne), from_db(p_db))
        # the cached C2 table gives the same bits as a freshly built one
        assert optimize_phi_adaptive(SystemConfig(na, ne), from_db(p_db)) == got
        assert abs(got - self.ADAPTIVE_ORACLE[na, ne, p_db]) <= 1e-10
        assert abs(got - earlier) <= 1e-10

    @pytest.mark.parametrize("na,ne,p_db", sorted(ADAPTIVE_ORACLE))
    def test_adaptive_values_against_oracle(self, na, ne, p_db):
        # each node is solved to its stationary point, so the quadrature sum
        # meets the oracle to a few ulps (golden section left 4.4e-14 here)
        got = optimize_phi_adaptive(SystemConfig(na, ne), from_db(p_db))
        assert abs(got - self.ADAPTIVE_ORACLE[na, ne, p_db]) <= 1e-13


# The split search before the stationarity root: golden section on rate
# values to |delta phi| < 1e-6, between the same grid neighbours.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_max(f, lo, hi, tol=1e-6):
    a, b = lo, hi
    c = a + _INVPHI2 * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = a + _INVPHI2 * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def full_grid_best(cfg, bob, values=None):
    # (index, clamped grid rates) of the exhaustive grid search: every grid
    # rate (values, if given), then the first argmax of the clamped values
    if values is None:
        values = [max(bob(phi) - c2, 0.0)
                  for phi, c2 in zip(_PHI_GRID, _eve_on_grid(cfg.na, cfg.ne))]
    return max(range(len(_PHI_GRID)), key=values.__getitem__), values


def bracket(best):
    grid, n = _PHI_GRID, len(_PHI_GRID)
    lo = grid[best - 1] if best > 0 else grid[0] / 2.0
    hi = grid[best + 1] if best < n - 1 else (grid[-1] + 1.0) / 2.0
    return lo, hi


def golden_reference(cfg, bob):
    # (phi*, rate*) of the clamped rate, as optimize_phi found them before
    def rate(phi):
        return max(bob(phi) - capacity_eve(cfg, PowerSplit(phi)), 0.0)

    best, values = full_grid_best(cfg, bob)
    if values[best] <= 0.0:
        return _PHI_GRID[best], 0.0
    phi, r = golden_max(rate, *bracket(best))
    return (_PHI_GRID[best], values[best]) if values[best] > r else (phi, r)


def full_grid_maximize(cfg, bob, bob_slope, values=None):
    # The maximizer with the exhaustive grid search in place of bisection:
    # (best grid index, (phi*, rate*, root steps)).
    na, ne = cfg.na, cfg.ne
    best, values = full_grid_best(cfg, bob, values)
    if values[best] <= 0.0:
        return best, (_PHI_GRID[best], 0.0, 0)

    def slope(phi):
        return bob_slope(1.0 / phi) - ansec.optimize._dc2_nats_dz(na, ne, 1.0 / phi)

    lo, hi = bracket(best)
    f_lo, f_hi = (bob_slope(1.0 / end) - ansec.optimize._dc2_at_end(na, ne, end)
                  for end in (lo, hi))
    if f_lo * f_hi > 0.0:
        phi, steps = (lo if f_lo > 0.0 else hi), 0
    else:
        phi, steps = ansec.optimize._zeroin(slope, lo, hi, f_lo, f_hi, ansec.optimize._PHI_TOL)
    rate = max(bob(phi) - capacity_eve(cfg, PowerSplit(phi)), 0.0)
    if values[best] > rate:
        return best, (_PHI_GRID[best], values[best], steps)
    return best, (phi, rate, steps)


def full_grid_optimize_phi(cfg, p, err=None):
    def bob(phi):
        return capacity_bob(cfg, p, PowerSplit(phi), err)

    def bob_slope(z):
        return ansec.optimize._dc1_nats_dz(cfg.na, p, z, err)

    phi, c, steps = full_grid_maximize(cfg, bob, bob_slope)[1]
    return OptResult(phi, 1.0 / phi, c, steps, c > 0.0)


def gain_functions(p, gain):
    # Bob's rate and its z slope in nats at a known beamforming gain
    t = p * gain
    return (lambda phi: math.log1p(t / (1.0 / phi)) / LN2), (lambda z: -t / (z * (z + t)))


def full_grid_terms(cfg, p, order):
    # w * rate at every node of the rule, in node order
    nodes, weights = _laguerre_rule(order, cfg.na - 1)
    bob = np.log1p(p * np.array(nodes)[:, None] / (1.0 / np.array(_PHI_GRID))) / LN2
    rows = np.maximum(bob - np.array(_eve_on_grid(cfg.na, cfg.ne)), 0.0).tolist()
    rates = (full_grid_maximize(cfg, *gain_functions(p, g), row)[1][1]
             for g, row in zip(nodes, rows))
    return [w * rate for w, rate in zip(weights, rates)]


def full_grid_adaptive(cfg, p, order):
    # the sum over all nodes, with none skipped
    return math.fsum(full_grid_terms(cfg, p, order))


def bisection_cells():
    # na from 2 to 1024, ne in {1, mid, na - 1}, SNR over -30..80 dB and
    # every error variance, drawn from a fixed seed
    rng = random.Random(22)
    for na in (2, 3, 4, 5, 8, 13, 32, 100, 257, 1024):
        for ne in sorted({1, na // 2, na - 1}):
            for s2 in (0.0, 0.01, 0.3, 0.9):
                err = CsiError(s2) if s2 or rng.random() < 0.5 else None
                yield SystemConfig(na, ne), from_db(rng.uniform(-30.0, 80.0)), err


class TestBisectedGridSearch:
    # The search reads the grid only where bisection probes it; every result
    # must equal the exhaustive search's, bit for bit.

    def test_same_best_point_and_result_as_full_grid(self):
        zero = positive = 0
        for cfg, p, err in bisection_cells():
            def bob(phi):
                return capacity_bob(cfg, p, PowerSplit(phi), err)

            gaps = [bob(phi) - c2 for phi, c2 in zip(_PHI_GRID, _eve_on_grid(cfg.na, cfg.ne))]
            best, values = full_grid_best(cfg, bob)
            found = ansec.optimize._first_peak(gaps.__getitem__)
            if values[best] > 0.0:
                positive += 1
                assert found == best, (cfg, p, err)
            else:
                zero += 1
                assert gaps[found] <= 0.0, (cfg, p, err)
            assert optimize_phi(cfg, p, err) == full_grid_optimize_phi(cfg, p, err), (cfg, p, err)
        assert zero >= 20 and positive >= 40  # both kinds of grid are covered

    def test_first_peak_of_unimodal_sequences(self):
        # rising, an optional plateau at the top, then falling: the first top
        n = len(_PHI_GRID)
        for top in range(n):
            for width in (1, 2, 5):
                seq = [min(i, top) - max(i - top - width + 1, 0) * 2.0 for i in range(n)]
                assert ansec.optimize._first_peak(seq.__getitem__) == top, (top, width)

    def test_adaptive_gains_and_rates_match_full_grid(self):
        for i, (cfg, p, err) in enumerate(bisection_cells()):
            if i % 4:
                continue
            nodes = _laguerre_rule(16, cfg.na - 1)[0]
            for g in nodes[::3]:
                got = ansec.optimize._best_rate_at_gain(cfg, p, g)
                assert got == full_grid_maximize(cfg, *gain_functions(p, g))[1][1], (cfg, p, g)
            want = full_grid_adaptive(cfg, p, 16)
            assert optimize_phi_adaptive(cfg, p, 16) == want, (cfg, p)

    def test_adaptive_pins_match_full_grid(self):
        # at (2, 1, -10 dB) and (5, 4, 2 dB) some of the 64 nodes have a gap
        # that is negative over many first grid points and positive further
        # on, where a search on the clamped rates would stop at zero
        for na, ne, p_db in [*sorted(TestEveGridTable.ADAPTIVE_ORACLE), (2, 1, -10.0),
                             (5, 4, 2.0)]:
            cfg, p = SystemConfig(na, ne), from_db(p_db)
            assert optimize_phi_adaptive(cfg, p) == full_grid_adaptive(cfg, p, 64)

    @staticmethod
    def count_bob(monkeypatch):
        calls = []
        original = ansec.optimize.capacity_bob

        def counting(cfg, p, split, err=None):
            calls.append(split.phi)
            return original(cfg, p, split, err)

        monkeypatch.setattr(ansec.optimize, "capacity_bob", counting)
        return calls

    def test_at_most_13_bob_calls_on_a_warm_table(self, monkeypatch):
        # 12 grid points at most, then the rate at the root; the exhaustive
        # search took all 65 grid points
        cells = list(bisection_cells())
        for cfg, _, _ in cells:
            _eve_on_grid(cfg.na, cfg.ne)
        calls = self.count_bob(monkeypatch)
        for cfg, p, err in cells:
            calls.clear()
            optimize_phi(cfg, p, err)
            assert len(calls) <= 13, (cfg, p, err)

    def test_debug_reads_each_grid_point_once(self, monkeypatch, caplog):
        cfg, p = SystemConfig(5, 2), from_db(12.0)
        _eve_on_grid(cfg.na, cfg.ne)
        calls = self.count_bob(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="ansec"):
            res = optimize_phi(cfg, p)
        assert len(caplog.records) == 65 and len(calls) == 66
        assert sorted(set(calls) & set(_PHI_GRID)) == list(_PHI_GRID)
        assert res == full_grid_optimize_phi(cfg, p)


def certified_stop_cells():
    # na from 2 to 1024, ne in {1, mid, na - 1}, orders from 2 to 1024 (from
    # 256 on the smallest weights underflow to 0.0), SNR over -30..80 dB, and
    # a power below the equal split's critical SNR, where only the strongest
    # realizations earn any rate. Order 1024, at 0.1-0.2 s a cell, runs at
    # ne = 1 and four na only.
    rng = random.Random(23)
    for na in (2, 3, 4, 8, 13, 32, 100, 257, 1024):
        for ne in sorted({1, na // 2, na - 1}):
            cfg = SystemConfig(na, ne)
            below = critical_snr_exact(cfg, PowerSplit(0.5)) * rng.uniform(0.3, 0.9)
            for i, order in enumerate((2, 16, 64, 256, 1024)):
                if order == 1024 and (ne > 1 or na not in (2, 8, 100, 1024)):
                    continue
                draws = 4 if order <= 16 else 2
                powers = [from_db(rng.uniform(-30.0, 80.0)) for _ in range(draws)]
                if i == (na + ne) % 4:
                    powers.append(below)
                for p in powers:
                    yield cfg, p, order


class TestCertifiedQuadratureStop:
    # optimize_phi_adaptive solves nodes in descending order of their term
    # bounds and stops once the unsolved bounds cannot move the rounded sum;
    # it must return the all-node sum bit for bit.

    def test_same_sum_as_every_node_and_terms_within_bounds(self):
        cells = zero = small = underflow = 0
        for cfg, p, order in certified_stop_cells():
            nodes, weights = _laguerre_rule(order, cfg.na - 1)
            terms = full_grid_terms(cfg, p, order)
            want = math.fsum(terms)
            assert optimize_phi_adaptive(cfg, p, order) == want, (cfg, p, order)
            bounds = ansec.optimize._term_bounds(p * np.array(nodes), weights).tolist()
            for g, w, term, b in zip(nodes, weights, terms, bounds):
                assert 0.0 <= term <= b, (cfg, p, order, g)
                # at least half the 2^-40 margin stays over w log2(1 + t), so
                # it covers the roundings of the rate and of the product
                assert b >= w * (math.log1p(p * g) / LN2) * (1.0 + 2.0**-41), (cfg, p, order, g)
            cells += 1
            zero += want == 0.0
            small += 0.0 < want < 0.05
            underflow += weights[-1] == 0.0
        # every kind of cell is covered
        assert cells >= 300 and zero >= 20 and small >= 10 and underflow >= 40

    def test_solves_fewer_nodes_at_a_bench_cell(self, monkeypatch):
        # 8 antennas, one eavesdropper at 20 dB: the stop comes after 36 of the
        # 64 nodes, where every node was solved before
        calls = 0
        original = ansec.optimize._best_rate_at_gain

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(ansec.optimize, "_best_rate_at_gain", counting)
        cfg, p = SystemConfig(8, 1), from_db(20.0)
        got = optimize_phi_adaptive(cfg, p)
        assert calls < 48
        assert got == full_grid_adaptive(cfg, p, 64)


class TestAgainstGoldenSection:
    def test_random_cells(self):
        # every eighth cell draws any ne < na; the rest keep ne <= 6
        rng = random.Random(13)
        for i in range(200):
            na = rng.randint(2, 64)
            ne = rng.randint(1, na - 1 if i % 8 == 0 else min(na - 1, 6))
            cfg, p = SystemConfig(na, ne), from_db(rng.uniform(-5.0, 35.0))
            err = CsiError(rng.uniform(0.01, 0.3)) if i % 3 == 0 else None
            res = optimize_phi(cfg, p, err)
            phi, c = golden_reference(cfg, lambda f: capacity_bob(cfg, p, PowerSplit(f), err))
            assert res.c_star >= c - 1e-12, (cfg, p, err)
            if c > 0.0:
                assert abs(res.phi_star - phi) <= 1e-6, (cfg, p, err)
            if i % 10 == 0:
                # every node of a 16-point adaptive rule
                for g in _laguerre_rule(16, na - 1)[0]:
                    got = ansec.optimize._best_rate_at_gain(cfg, p, g)
                    want = golden_reference(cfg, lambda f: math.log1p(p * g * f) / LN2)[1]
                    assert got >= want - 1e-12, (cfg, p, g)


class TestHighSnrRoots:
    @pytest.mark.parametrize(
        "na,want",
        [
            # geometric bisection of the stationarity condition, mpmath mp.dps=40
            (2, 2.0),
            (3, 1.9004256799883599),
            (4, 1.8677850028473809),
            (8, 1.8312494953556586),
            (64, 1.8075568083993645),
        ],
    )
    def test_single_eavesdropper_roots(self, na, want):
        got = high_snr_optimal_z(SystemConfig(na=na), "exact-ne1")
        assert abs(got - want) < 1e-9

    def test_two_antenna_closed_value(self):
        assert high_snr_optimal_z(SystemConfig(na=2), "na2-closed") == 2.0

    @pytest.mark.parametrize(
        "ne,want",
        [
            # geometric bisection of the stationarity condition, mpmath mp.dps=40
            (1, 1.8046416611221064),
            (2, 2.23112165244),
            (4, 2.84155487192),
        ],
    )
    def test_large_na_roots(self, ne, want):
        got = high_snr_optimal_z(SystemConfig(na=128, ne=ne), "large-na")
        assert abs(got - want) < 1e-8

    def test_large_na_single_eavesdropper_band(self):
        got = high_snr_optimal_z(SystemConfig(na=128), "large-na")
        assert abs(got - 1.80) <= 0.01

    @pytest.mark.parametrize("ne", [1, 2, 4, 9, 16])
    def test_asymptotic_closed_form(self, ne):
        got = high_snr_optimal_z(SystemConfig(na=64, ne=ne), "large-na-asymptotic")
        assert got == 1.0 + math.sqrt(ne)

    @pytest.mark.parametrize("na", [3, 4, 8])
    def test_root_is_a_high_snr_maximizer(self, na):
        cfg, p = SystemConfig(na=na), 1e8
        z = high_snr_optimal_z(cfg, "exact-ne1")
        best = secrecy_rate(cfg, p, PowerSplit.from_z(z)).c
        for dz in (-0.01, 0.01):
            assert best >= secrecy_rate(cfg, p, PowerSplit.from_z(z + dz)).c - 1e-9

    @pytest.mark.parametrize("na", [2, 3, 8, 64])
    def test_exact_regime_at_one_eavesdropper(self, na):
        cfg = SystemConfig(na=na)
        got = high_snr_optimal_z(cfg, "exact")
        assert abs(got - high_snr_optimal_z(cfg, "exact-ne1")) <= 1e-12 * got

    @pytest.mark.parametrize(
        "na,ne,want",
        [
            # mpmath findroot at 30 digits of -1/z - dC2/dz, with each term's
            # slope from the hyp2f1 derivative
            (8, 2, 2.368029100125879763),
            (64, 2, 2.244552166837076796),
            (8, 4, 3.505002589963774511),
            (16, 4, 3.080092335248358017),
            (64, 4, 2.891070851903194894),
        ],
    )
    def test_exact_regime_against_mpmath(self, na, ne, want):
        got = high_snr_optimal_z(SystemConfig(na=na, ne=ne), "exact")
        assert abs(got - want) <= 1e-12 * want

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            high_snr_optimal_z(SystemConfig(na=4), "na2-closed")
        with pytest.raises(ValueError):
            high_snr_optimal_z(SystemConfig(na=4, ne=2), "exact-ne1")
        with pytest.raises(ValueError):
            high_snr_optimal_z(SystemConfig(na=4), "no-such-regime")


class TestCriticalSnr:
    @pytest.mark.parametrize(
        "na,s2,want_db",
        [(2, 0.0, 3.01), (6, 0.1, -4.27), (10, 0.2, -6.28), (4, 0.0, -2.62)],
    )
    def test_exact_reference_points(self, na, s2, want_db):
        # two-decimal values from the reference critical-SNR table
        err = CsiError(s2) if s2 else None
        p_c = critical_snr_exact(SystemConfig(na=na), PowerSplit(0.5), err)
        assert abs(to_db(p_c) - want_db) <= 0.05

    @pytest.mark.parametrize(
        "na,s2,want_db",
        [(2, 0.0, 6.02), (4, 0.1, -1.20), (8, 0.0, -6.01), (10, 0.2, -5.96)],
    )
    def test_bound_reference_points(self, na, s2, want_db):
        # two-decimal values from the reference critical-SNR table
        err = CsiError(s2) if s2 else None
        p_c = critical_snr_upper_bound(SystemConfig(na=na), PowerSplit(0.5), err)
        assert abs(to_db(p_c) - want_db) <= 0.05

    def test_bound_goes_infinite_first(self):
        cfg, split, err = SystemConfig(na=2), PowerSplit(0.5), CsiError(0.2)
        assert math.isinf(critical_snr_upper_bound(cfg, split, err))
        exact = critical_snr_exact(cfg, split, err)
        assert math.isfinite(exact)
        assert abs(to_db(exact) - 6.99) <= 0.05

    def test_threshold_past_the_first_probe(self):
        # near phi = 1 the rate turns positive only at about 68.16 dB, past
        # the 60 dB first probe; without estimation error a finite
        # threshold always exists, so the search must go on, not return inf
        cfg, split = SystemConfig(na=2), PowerSplit(1.0 - 1e-7)
        p_c = critical_snr_exact(cfg, split)
        assert abs(to_db(p_c) - 68.16) <= 0.01
        below = secrecy_rate(cfg, p_c * 0.99, split)
        above = secrecy_rate(cfg, p_c * 1.01, split)
        assert below.c1 - below.c2 < 0.0 < above.c1 - above.c2
        assert math.isinf(critical_snr_upper_bound(cfg, split))

    @pytest.mark.parametrize(
        "na,ne,phi", [(8, 4, 0.999999), (256, 2, 0.999), (64, 16, 0.9999), (8, 7, 0.999999)]
    )
    def test_near_all_signal_against_mpmath(self, na, ne, phi):
        # z - 1 down to 1e-6: a Gauss series per eavesdropper order would
        # need millions of terms there. At 30 digits the rate changes sign
        # within 0.001 dB of the threshold.
        split = PowerSplit(phi)
        p_c = critical_snr_exact(SystemConfig(na, ne), split)
        with mpmath.workdps(30):
            z, a = mpmath.mpf(split.z), na - 1
            x = (z - na) / (z - 1)
            c2 = mpmath.fsum(
                a / ((z - 1) * (a - k)) * mpmath.hyp2f1(1, k + 1, na, x) for k in range(ne)
            )
            s = math.sqrt(na)
            pts = sorted({0.0, max(0.0, na - 1 - 12 * s), na - 1.0, na + 12 * s, na + 50 * s + 50})

            def c1(p):
                # E[ln(1 + g p/z)] with g ~ Gamma(na, 1), by quadrature
                return mpmath.quad(
                    lambda g: mpmath.log1p(g * p / z)
                    * mpmath.exp((na - 1) * mpmath.log(g) - g - mpmath.loggamma(na)),
                    pts,
                )

            step = mpmath.mpf(10) ** mpmath.mpf("0.0001")
            assert c1(p_c / step) < c2 < c1(p_c * step)

    def test_no_sign_change_raises(self):
        class _FakeSplit:
            phi = 1.0
            z = 1.0

        # C2 is infinite at z = 1, so no power gives a positive rate
        with pytest.raises(RuntimeError, match="still zero at p = "):
            critical_snr_exact(SystemConfig(na=2), _FakeSplit())

    def test_exact_infinite_when_ceiling_below_leakage(self):
        # estimation error caps Bob's rate below Eve's no matter the power
        p_c = critical_snr_exact(SystemConfig(na=2), PowerSplit(0.5), CsiError(0.5))
        assert math.isinf(p_c)

    @pytest.mark.parametrize("na", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("s2", [0.0, 0.1, 0.2])
    def test_exact_never_exceeds_bound(self, na, s2):
        err = CsiError(s2) if s2 else None
        res = critical_snr(SystemConfig(na=na), PowerSplit(0.5), err)
        assert res.p_c_exact <= res.p_c_bound

    def test_combined_result_db_properties(self):
        res = critical_snr(SystemConfig(na=2), PowerSplit(0.5))
        assert abs(res.p_c_exact_db - 3.01) <= 0.05
        assert abs(res.p_c_bound_db - 6.02) <= 0.05

    def test_infinite_db_property(self):
        res = CriticalSnr(p_c_bound=math.inf, p_c_exact=2.0)
        assert res.p_c_bound_db == math.inf
        assert abs(res.p_c_exact_db - to_db(2.0)) < 1e-12

    def test_rate_sign_flips_at_exact_threshold(self):
        cfg, split = SystemConfig(na=4), PowerSplit(0.5)
        p_c = critical_snr_exact(cfg, split, None)
        below = secrecy_rate(cfg, p_c * 0.98, split)
        above = secrecy_rate(cfg, p_c * 1.02, split)
        assert below.c1 - below.c2 < 0
        assert above.c1 - above.c2 > 0

    def test_result_invariant_validation(self):
        with pytest.raises(ValueError):
            CriticalSnr(p_c_bound=1.0, p_c_exact=2.0)

    @pytest.mark.parametrize(
        "na,phi,s2", [(4, 0.5, 0.0), (10, 0.5, 0.2), (2, 1.0 - 1e-7, 0.0), (2, 0.5, 0.5)]
    )
    def test_bob_sum_runs_at_most_ten_times(self, na, phi, s2, monkeypatch):
        # one Brent root in Bob's argument w: the sum runs at the lower bracket
        # end, then at the upper end and each Brent step only if the lower end
        # has C1 > C2; capacity_bob and its power hunts are gone
        sums = []
        original = ansec.optimize.scaled_expint_sum

        def counting(n, w):
            sums.append(w)
            return original(n, w)

        def forbidden(*args):
            raise AssertionError("capacity_bob was called")

        monkeypatch.setattr(ansec.optimize, "scaled_expint_sum", counting)
        monkeypatch.setattr(ansec.optimize, "capacity_bob", forbidden)
        monkeypatch.setattr(ansec.secrecy, "capacity_bob", forbidden)
        critical_snr_exact(SystemConfig(na), PowerSplit(phi), CsiError(s2) if s2 else None)
        assert 1 <= len(sums) <= 10

    @pytest.mark.parametrize("s2", [0.0, 0.1, 0.2, 0.4])
    def test_closed_form_oracle(self, s2):
        # at (2, 1, 0.5) C2 is 1 nat and C1(w) = 1 + (1 - w) e^w E_1(w), so
        # w* = 1 and p = 1/((1 - s2) w*/z - s2) with z = 2: 2 (3.0103 dB), 1/0.35,
        # 5 (6.9897 dB), and no power at s2 = 0.4, where (1 - s2)/2 < s2
        err = CsiError(s2) if s2 else None
        got = critical_snr_exact(SystemConfig(2, 1), PowerSplit(0.5), err)
        denom = (1.0 - s2) / 2.0 - s2
        if denom <= 0.0:
            assert math.isinf(got)
        else:
            assert abs(got * denom - 1.0) <= 1e-14

    def test_matches_40_digit_root(self):
        # the root w* of C1(w) = C2 for the same double C2, solved at 40
        # digits, against the solver at 60 seeded cells; phi reaches 1e-9,
        # where the lower end is w* to rounding, so both branches run
        rng = random.Random(25)
        branches = set()
        for _ in range(60):
            na = rng.choice([2, 3, 4, 5, 8, 12, 16, 32, 64])
            ne = rng.randint(1, na - 1)
            split = PowerSplit(10.0 ** rng.uniform(-9.0, math.log10(0.999)))
            s2 = rng.choice([0.0, 0.05, 0.1, 0.2])
            err = CsiError(s2) if s2 else None
            cfg = SystemConfig(na, ne)
            got = critical_snr_exact(cfg, split, err)
            branches.add(got == critical_snr_upper_bound(cfg, split, err))
            w = _mp_bob_root(na, capacity_eve(cfg, split) * LN2)
            with mpmath.workdps(40):
                s2_mp = mpmath.mpf(s2)
                denom = (1 - s2_mp) * w / mpmath.mpf(split.z) - s2_mp
                if denom <= 0:
                    assert math.isinf(got), (na, ne, split.phi, s2)
                    continue
                rel = abs(got * denom - 1)
            assert rel <= 1e-12, (na, ne, split.phi, s2, got, rel)
        assert branches == {True, False}

    def test_bracket_signs(self, monkeypatch):
        # C1(w) > psi(na) - ln w > ln na - 1/na - ln w puts the digamma end
        # below w*; the paper's bound puts A there up to rounding; Jensen's
        # C1(w) < ln(1 + na/w) puts na/expm1(C2) above it, and the 2^-20 margin
        # keeps that sign where rounding hides the gap. Every Brent call gets a
        # sign change.
        brackets = []
        original = ansec.optimize._zeroin

        def recording(f, a, b, fa, fb, tol):
            brackets.append((fa, fb))
            return original(f, a, b, fa, fb, tol)

        monkeypatch.setattr(ansec.optimize, "_zeroin", recording)
        phis = [1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 1e-9, 1e-3, 0.1, 0.5, 0.9, 0.999,
                1.0 - 1e-9, 1.0 - 2.0**-52]
        for na in (2, 3, 4, 8, 16, 64, 256, 1024):
            for ne in sorted({1, na // 2, na - 1}):
                cfg = SystemConfig(na, ne)
                for phi in phis:
                    c2 = capacity_eve(cfg, PowerSplit(phi)) * LN2

                    def excess(w):
                        return ansec.specfun.scaled_expint_sum(na, w) - c2

                    a_term = na / c2 - (na + 1.0) / 2.0
                    assert excess(na / math.expm1(c2) * (1.0 + 2.0**-20)) < 0.0, (na, ne, phi)
                    assert excess(na * math.exp(-1.0 / na - c2)) > 0.0, (na, ne, phi)
                    if a_term > 0.0:
                        assert excess(a_term) >= -4.0 * 2.0**-52 * c2, (na, ne, phi)
                    critical_snr_exact(cfg, PowerSplit(phi))
        assert brackets
        assert all(fa > 0.0 > fb for fa, fb in brackets)

    @pytest.mark.parametrize("na,ne", [(2, 1), (4, 1), (4, 3), (16, 1), (16, 15), (64, 8)])
    def test_exact_stays_below_bound_down_to_tiny_phi(self, na, ne):
        # the 0.001 dB bisection overshot the bound at low SNR, where the bound
        # is tight, e.g. at (2, 1, 1e-4): 4.60969 against 4.60923 (6.6363 dB)
        cfg = SystemConfig(na, ne)
        for k in range(1, 301):
            res = critical_snr(cfg, PowerSplit(10.0**-k))
            assert res.p_c_exact <= res.p_c_bound

    @pytest.mark.parametrize("na,phi", [(4, 1e-308), (1024, 1e-306)])
    def test_tiny_phi_overflowing_na_over_c2_names_phi(self, na, phi):
        # na/C2 overflows: the bound used to come back 0.0, and critical_snr
        # then raised a misleading "exceeds its upper bound"
        cfg, split = SystemConfig(na, 1), PowerSplit(phi)
        for solver in (critical_snr_upper_bound, critical_snr_exact, critical_snr):
            with pytest.raises(ValueError, match=rf"na/C2 overflows at phi = {phi!r}"):
                solver(cfg, split)


def _mp_bob_root(na, c2):
    # The root w* of C1(w) = e^w sum_{k<=na} E_k(w) = c2 at 40 digits. C1 comes
    # from mpmath's E_1 by A&S 5.1.14 upward, e_{k+1} = (1 - w e_k)/k, with
    # guard digits for the up to w^k/k! growth of its rounding error, and
    # C1'(w) = e_na - 1/w. C1 is convex and falls, so Newton steps from a w
    # with C1(w) > c2 climb to w* without overshooting.
    with mpmath.workdps(40):
        c2 = mpmath.mpf(c2)
        w = na * mpmath.exp(-mpmath.mpf(1) / na - c2)
        for _ in range(100):
            growth = max(k * mpmath.log10(w) - mpmath.log10(mpmath.factorial(k))
                         for k in range(na))
            with mpmath.workdps(50 + int(max(growth, 0))):
                e = [mpmath.exp(w) * mpmath.e1(w)]
                for k in range(1, na):
                    e.append((1 - w * e[-1]) / k)
                step = (mpmath.fsum(e) - c2) / (e[-1] - 1 / w)
            w -= step
            if abs(step) < w * mpmath.mpf(10) ** -32:
                return w
    raise AssertionError(f"Newton did not converge for na={na}, c2={c2}")


class TestImportCost:
    def test_no_scipy_on_import_and_no_scipy_optimize(self):
        # scipy is a test dependency only: on top of numpy, scipy.special
        # adds about 26 MB of memory and 0.3 s of import, so no scipy module
        # may load, not even for the adaptive optimizer's Laguerre rule
        tree = str(Path(ansec.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [tree, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, ansec\n"
            "scipy = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not scipy(), scipy()\n"
            "ansec.optimize_phi_adaptive(ansec.SystemConfig(4, 2), 10.0, quadrature_order=8)\n"
            "assert not scipy(), scipy()\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestOptResult:
    def test_fields(self):
        r = OptResult(phi_star=0.5, z_star=2.0, c_star=1.0, iterations=7, converged=True)
        assert r.phi_star == 0.5 and r.iterations == 7
