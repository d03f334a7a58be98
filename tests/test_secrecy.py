"""Closed-form rate terms against quadrature oracles and frozen references."""
import inspect
import math
import random

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import ansec.secrecy
from ansec.secrecy import (
    CsiError,
    PowerSplit,
    SystemConfig,
    _dc1_nats_dz,
    _dc2_nats_dz,
    capacity_bob,
    capacity_eve,
    ccdf_sir,
    secrecy_rate,
    secrecy_rate_large_na,
)
from ansec.specfun import hyp2f1_1b_c, hyp2f1_appendix_closed_form, scaled_expint_sum

LN2 = math.log(2.0)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def gauss_laguerre_log_mean(shape: int, coef: float, order: int = 96) -> float:
    # E[log2(1 + coef*g)] for g ~ Gamma(shape, 1) by generalized Gauss-Laguerre
    nodes, weights = special.roots_genlaguerre(order, shape - 1)
    norm = weights.sum()
    acc = 0.0
    for t, w in zip(nodes, weights):
        acc += w * math.log1p(coef * t)
    return acc / norm / LN2


class TestConfigTypes:
    def test_system_config_fields(self):
        cfg = SystemConfig(na=4, ne=2)
        assert cfg.na == 4 and cfg.ne == 2
        assert SystemConfig(na=3).ne == 1

    @pytest.mark.parametrize(
        "na,ne", [(1, 1), (2, 2), (2, 3), (0, 1), (4, 0), (2.0, 1), (4, True), (True, 1)]
    )
    def test_system_config_validation(self, na, ne):
        with pytest.raises(ValueError):
            SystemConfig(na=na, ne=ne)

    def test_power_split_z(self):
        s = PowerSplit(0.25)
        assert s.z == 4.0
        assert PowerSplit.from_z(4.0).phi == 0.25

    # below about 5.6e-309, z = 1/phi overflows to inf
    @pytest.mark.parametrize("phi", [0.0, 1.0, -0.1, 1.5, math.nan, 1e-310, 5e-324])
    def test_power_split_validation(self, phi):
        with pytest.raises(ValueError):
            PowerSplit(phi)

    def test_from_z_validation(self):
        with pytest.raises(ValueError):
            PowerSplit.from_z(1.0)
        with pytest.raises(ValueError):
            PowerSplit.from_z(0.5)

    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.9, 1e-6, 1 - 1e-6])
    def test_z_phi_product(self, phi):
        s = PowerSplit(phi)
        assert abs(s.z * s.phi - 1.0) <= 1e-12

    def test_power_budget_split(self):
        # information power plus all noise-stream power re-adds to the budget
        s, p, na = PowerSplit(0.3), 7.0, 5
        total = s.sigma_u2(p) + (na - 1) * s.sigma_v2(p, na)
        assert rel_err(total, p) < 1e-12

    def test_csi_error_range(self):
        assert CsiError(0.0).sigma_hat2 == 1.0
        assert rel_err(CsiError(0.25).sigma_hat2, 0.75) == 0.0
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                CsiError(bad)


class TestCapacityBob:
    def test_exact_unit_argument(self):
        # z/p = 1 at na=2 collapses to 1/ln2 via the two-term recurrence
        got = capacity_bob(SystemConfig(na=2), 2.0, PowerSplit(0.5))
        assert rel_err(got, 1.0 / LN2) < 1e-14

    @pytest.mark.parametrize(
        "na,p,phi,want",
        [
            # mpmath mp.dps=40 exp(z/p) * sum(expint(k, z/p) for k in 1..na) / ln 2
            (4, 10.0, 0.5, 4.2259733425189912),
            (8, 10.0, 0.5, 5.2704345869209451),
            (4, 100.0, 0.25, 6.4750991606502853),
            (64, 1000.0, 0.55, 15.092029038025868),
        ],
    )
    def test_frozen_values(self, na, p, phi, want):
        got = capacity_bob(SystemConfig(na=na), p, PowerSplit(phi))
        assert rel_err(got, want) < 1e-12

    @pytest.mark.parametrize(
        "na,p,phi",
        [(2, 10.0 ** 0.301, 0.5), (4, 10.0, 0.5), (3, 2.0, 0.3), (6, 50.0, 0.7)],
    )
    def test_against_gauss_laguerre(self, na, p, phi):
        got = capacity_bob(SystemConfig(na=na), p, PowerSplit(phi))
        want = gauss_laguerre_log_mean(na, phi * p)
        assert rel_err(got, want) < 1e-8

    def test_vanishes_with_power(self):
        got = capacity_bob(SystemConfig(na=4), 1e-12, PowerSplit(0.5))
        assert 0.0 < got < 1e-10

    @pytest.mark.parametrize("err", [None, CsiError(0.1)])
    def test_vanishing_power_past_continued_fraction(self, err):
        # z/p = 2e300 is far past where the E_n continued fraction can run,
        # and the denormal p = 1e-320 makes z/p inf, where C1 is exactly 0
        cfg, s = SystemConfig(na=3), PowerSplit(0.5)
        assert 0.0 < capacity_bob(cfg, 1e-300, s, err) < 1e-299
        assert capacity_bob(cfg, 1e-320, s, err) == 0.0

    def test_power_validation(self):
        with pytest.raises(ValueError):
            capacity_bob(SystemConfig(na=4), 0.0, PowerSplit(0.5))
        with pytest.raises(ValueError):
            capacity_bob(SystemConfig(na=4), -1.0, PowerSplit(0.5))


def ccdf_reference(x: float, na: int, ne: int) -> float:
    # independent restatement of the interference-ratio tail probability
    acc = 0.0
    for k in range(ne):
        acc += math.comb(na - 1, k) * x**k
    return acc / (1.0 + x) ** (na - 1)


def eve_quadrature(na: int, ne: int, z: float) -> float:
    # E[log2(1 + r*X)] = (1/ln2) int_0^inf r/(1+r*x) * P(X > x) dx
    r = (na - 1) / (z - 1.0)
    val, err = integrate.quad(
        lambda x: r / (1.0 + r * x) * ccdf_reference(x, na, ne),
        0.0,
        math.inf,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=400,
    )
    assert err < 1e-9
    return val / LN2


class TestCcdfSir:
    def test_at_zero(self):
        assert ccdf_sir(0.0, SystemConfig(na=4, ne=2)) == 1.0

    def test_na2_ne1_median(self):
        assert rel_err(ccdf_sir(1.0, SystemConfig(na=2)), 0.5) < 1e-15

    def test_na5_ne3_rational(self):
        # exact rational: (1 + 4*2 + 6*4) / 3^4 = 33/81
        got = ccdf_sir(2.0, SystemConfig(na=5, ne=3))
        assert rel_err(got, 33.0 / 81.0) < 1e-14

    @pytest.mark.parametrize("na,ne", [(2, 1), (4, 2), (6, 3), (8, 1), (12, 7)])
    def test_matches_reference_everywhere(self, na, ne):
        cfg = SystemConfig(na=na, ne=ne)
        for x in (1e-6, 0.1, 1.0, 3.7, 25.0, 1e4):
            assert rel_err(ccdf_sir(x, cfg), ccdf_reference(x, na, ne)) < 1e-13

    def test_monotone_and_bounded(self):
        cfg = SystemConfig(na=6, ne=3)
        xs = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e6]
        vals = [ccdf_sir(x, cfg) for x in xs]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_extreme_argument_no_overflow(self):
        assert ccdf_sir(1e300, SystemConfig(na=8, ne=2)) == 0.0
        assert ccdf_sir(math.inf, SystemConfig(na=8, ne=2)) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            ccdf_sir(-0.5, SystemConfig(na=4, ne=2))

    @pytest.mark.parametrize(
        "na,ne,x,want",
        [
            (300, 299, 50.0, 0.99731744494943386),
            (65, 60, 1e10, 7.6245119587005601e-44),
            (512, 500, 1e3, 3.6251858059875216e-13),
            # q^(na-1-k) of the evaluated term leaves the double range (to 0.0,
            # and to a subnormal) where the term does not
            (256, 121, 266.37, 2.6054242224827394e-253),
            (512, 153, 6.709, 1.2431554429630647e-194),
        ],
    )
    def test_far_from_the_lowest_term(self, na, ne, x, want):
        # the lowest term q^(na-1) underflows at each point, so a recurrence
        # seeded there would return 0.0; want is 40-digit mpmath
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            ref = sum(mpmath.binomial(na - 1, k) * xm**k for k in range(ne)) / (1 + xm) ** (na - 1)
        assert float(ref) == want
        assert rel_err(ccdf_sir(x, SystemConfig(na=na, ne=ne)), want) <= 1e-13

    @pytest.mark.parametrize("na,ne", [(2, 1), (8, 3), (65, 60), (512, 500)])
    def test_ends_of_the_range(self, na, ne):
        cfg = SystemConfig(na=na, ne=ne)
        assert ccdf_sir(0.0, cfg) == 1.0
        assert ccdf_sir(math.inf, cfg) == 0.0
        assert ccdf_sir(1e-300, cfg) == 1.0
        with pytest.raises(ValueError):
            ccdf_sir(math.nan, cfg)


def _eve_nats_single(na: int, z: float) -> float:
    # the single-eavesdropper C2 in nats, S_a(u) = sum_m u^m/(a + m) with
    # a = na - 1 and u = (na - z)/a, as capacity_eve's first term forms it
    return ansec.specfun._lerch_sum(na - 1, na - z, z - 1.0)


def lerch_oracle(na: int, z: float) -> mpmath.mpf:
    # sum_m u^m / (na - 1 + m) at 30 digits, with u formed exactly from z
    with mpmath.workdps(30):
        u = (na - mpmath.mpf(z)) / (na - 1)
        return mpmath.lerchphi(u, 1, na - 1)


def oracle_rel_err(got: float, want: mpmath.mpf) -> float:
    with mpmath.workdps(30):
        return float(abs((got - want) / want))


class TestCapacityEve:
    @pytest.mark.parametrize(
        "na,ne,z,want",
        [
            # mpmath mp.dps=40 quadrature of the tail-probability integral
            (2, 1, 2.0, 1.4426950408889634),
            (4, 1, 2.0, 1.0211633172670119),
            (4, 2, 2.0, 2.1640425613334451),
            (8, 4, 2.0, 3.0465893083260822),
            (6, 3, 1.25, 4.4220599176445869),
            (8, 2, 5.0, 0.68866455321587969),
            (16, 4, 3.0, 1.7740414489352183),
            (10, 1, 2.0, 0.91006260013297249),
        ],
    )
    def test_frozen_values(self, na, ne, z, want):
        got = capacity_eve(SystemConfig(na=na, ne=ne), PowerSplit.from_z(z))
        assert rel_err(got, want) < 1e-12

    def test_removable_point_single_eavesdropper(self):
        # mpmath mp.dps=40 series value at the z == na parameter collision
        got = capacity_eve(SystemConfig(na=4), PowerSplit.from_z(4.0))
        assert rel_err(got, 0.4808983469629878) < 1e-12

    def test_near_collision_general_route(self):
        # mpmath mp.dps=40 value just off the z == na collision, ne > 1
        got = capacity_eve(SystemConfig(na=4, ne=2), PowerSplit.from_z(4.0001))
        assert rel_err(got, 1.2022218230511552) < 1e-11

    @pytest.mark.parametrize("na,ne,z", [(4, 2, 2.0), (6, 3, 1.25), (8, 2, 5.0), (5, 4, 3.0)])
    def test_against_quadrature(self, na, ne, z):
        got = capacity_eve(SystemConfig(na=na, ne=ne), PowerSplit.from_z(z))
        assert rel_err(got, eve_quadrature(na, ne, z)) < 1e-8

    def test_inner_loop_skips_argument_checks(self, monkeypatch):
        # SystemConfig validated na and ne once; the per-order hypergeometric
        # terms run on the unchecked kernels
        cfg = SystemConfig(na=8, ne=4)
        calls = []
        monkeypatch.setattr(ansec.specfun, "_is_int", lambda v: calls.append(v) or True)
        for z in (1.2, 3.0, 8.0, 40.0):
            capacity_eve(cfg, PowerSplit.from_z(z))
        assert calls == []

    def test_general_route_weights_against_mpmath(self):
        # sum_k C(na-1, k) B(k+1, na-1-k) scale 2F1(1, k+1; na; x), at 30
        # digits; at large na and small z the k = 0 term dominates
        rng = random.Random(21)
        cases = []
        for _ in range(20):
            na = rng.randint(3, 40)
            ne = rng.randint(2, min(na - 1, 6))
            cases.append((na, ne, math.exp(rng.uniform(math.log(1.001), math.log(200.0)))))
        for na in (48, 64, 128, 256):
            cases += [(na, rng.randint(2, 6), rng.uniform(1.05, 5.0)) for _ in range(3)]
        # ne = na - 1: the last term is 2F1(1, b; b+1; x), the C2 kernel again
        for na in (3, 4, 8, 12, 17, 64, 256):
            cases.append((na, na - 1, math.exp(rng.uniform(math.log(1.001), math.log(2.0 * na)))))
        for na, ne, z in cases:
            split = PowerSplit.from_z(z)
            with mpmath.workdps(30):
                zm = mpmath.mpf(split.z)
                x = (zm - na) / (zm - 1)
                want = mpmath.fsum(
                    mpmath.binomial(na - 1, k) * mpmath.beta(k + 1, na - 1 - k)
                    * (na - 1) / (zm - 1) * mpmath.hyp2f1(1, k + 1, na, x)
                    for k in range(ne)
                ) / mpmath.log(2)
            got = capacity_eve(SystemConfig(na, ne), split)
            assert oracle_rel_err(got, want) <= 1e-14, (na, ne, z)

    def test_power_independent_by_construction(self):
        params = inspect.signature(capacity_eve).parameters
        assert "p" not in params and "power" not in params

    def test_noise_starved_split_is_flagged_infinite(self):
        class _FakeSplit:
            phi = 1.0
            z = 1.0

        assert math.isinf(capacity_eve(SystemConfig(na=4, ne=2), _FakeSplit()))

    def test_heavy_noise_drives_leakage_down(self):
        cfg = SystemConfig(na=8, ne=2)
        got = capacity_eve(cfg, PowerSplit(1e-9))
        assert got < 1e-7

    def test_decreasing_in_z(self):
        cfg = SystemConfig(na=6, ne=2)
        zs = [1.1, 1.5, 2.0, 4.0, 8.0, 20.0]
        vals = [capacity_eve(cfg, PowerSplit.from_z(z)) for z in zs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def hyp2f1_1b_near_one(c: int, y: mpmath.mpf) -> list:
    # 2F1(1, b; c; 1 - y) for b = 1 .. c - 1 and 0 < y <= 1/4, by the
    # logarithmic connection formula (DLMF 15.8.10 with a = 1, m = c - 1 - b,
    # n = b + m = c - 1; the digammas reduce to harmonic numbers):
    #   F = n/m! sum_{j<m} (b)_j (m-j-1)! (-y)^j - n C(n-1, b-1) (-y)^m S,
    #   S = sum_j (n)_j/j! y^j (ln y + H_{n+j-1} - H_j),
    # where S is the same for every b. Its terms sum in size to about
    # (1 - y)^-n while S stays near -1/n (at n = 63 and y = 1/4 its largest
    # term is 1.2e7 times S), so the digits that cancel are added on top of 40.
    n = c - 1
    with mpmath.workdps(40 + int(n * mpmath.log10(1 / (1 - mpmath.mpf(y))))):
        y = mpmath.mpf(y)
        ln_y = mpmath.log(y)
        s = mag = h_j = mpmath.mpf(0)
        t, h_top, j = mpmath.mpf(1), mpmath.fsum(mpmath.mpf(1) / i for i in range(1, n)), 0
        while True:
            term = t * (ln_y + h_top - h_j)
            s, mag = s + term, mag + abs(term)
            if j >= n and abs(term) <= mpmath.eps * mag:  # the rest falls by y(n+j)/j <= 1/2
                break
            j += 1
            t *= (n + j - 1) * y / j
            h_top += mpmath.mpf(1) / (n + j - 1)
            h_j += mpmath.mpf(1) / j
        out = []
        for b in range(1, c):
            m = n - b
            head = mpmath.fsum(mpmath.rf(b, j) * mpmath.factorial(m - j - 1) * (-y) ** j
                               for j in range(m))
            out.append(n / mpmath.factorial(m) * head
                       - n * mpmath.binomial(n - 1, b - 1) * (-y) ** m * s)
    return out


def eve_terms_oracle(na: int, z: float) -> list:
    # the C2 terms in nats, a/((z-1)(a-k)) 2F1(1, k+1; na; x) for every
    # k < a = na - 1, at 30 digits and at the float z itself: rounding z
    # moves C2 by about 1e-16/(z - 1) relative. For x < 0 the Pfaff form
    # 2F1(1, na-k-1; na; u)/(a-k), u = x/(x-1) = (na-z)/a, is the same value,
    # which mpmath finds up to 200 times faster for -3 <= x < 0 (u <= 3/4).
    # Past 3/4, in x or in u, mpmath's degenerate-parameter transformations
    # take up to 0.9 s a call, so the connection series above serves there,
    # from 1 - x = a/y or 1 - u = y/a computed directly: it holds even where
    # x rounds to 1 at 30 digits.
    with mpmath.workdps(30):
        zm = mpmath.mpf(z)
        a = na - 1
        x = 1 - a / (zm - 1)  # 1 - x = a/y
        if x < -3:
            f = hyp2f1_1b_near_one(na, (zm - 1) / a)[::-1]
            return [f[k] / (a - k) for k in range(a)]
        if x < 0:
            u = (na - zm) / a
            return [mpmath.hyp2f1(1, na - k - 1, na, u) / (a - k) for k in range(a)]
        if x > 0.75:
            f = hyp2f1_1b_near_one(na, a / (zm - 1))
            return [a / ((zm - 1) * (a - k)) * f[k] for k in range(a)]
        return [a / ((zm - 1) * (a - k)) * mpmath.hyp2f1(1, k + 1, na, x) for k in range(a)]


def seed_switch(na: int, kstar: int) -> tuple:
    # The adjacent floats z below and above which capacity_eve's seed order
    # moves from kstar - 1 to kstar, found from the rule's own float k*
    a = na - 1

    def past(z: float) -> bool:
        return (a + 1) / (1.0 + a / (z - 1.0)) > kstar

    z = 1.0 + a / ((a + 1) / kstar - 1.0)
    while past(z):
        z = math.nextafter(z, 0.0)
    while not past(math.nextafter(z, math.inf)):
        z = math.nextafter(z, math.inf)
    return z, math.nextafter(z, math.inf)


class TestEveOrdersOracle:
    # One order s of C2 is evaluated, just below the turning point k* of the
    # recurrence's error factor, and the rest follow from the recurrence run
    # upward and downward from it: s = 0 (the single-eavesdropper kernel)
    # for z <= 2, s = na - 2 (the bounded top term) far out, and in between
    # one Gauss continued fraction.
    TOL = 1e-14

    def test_every_order_near_one_against_mpmath(self):
        rng = random.Random(11)
        cases = [(rng.randint(2, 48), 10.0 ** rng.uniform(-7.0, 0.0)) for _ in range(5)]
        cases += [(rng.randint(49, 256), 10.0 ** rng.uniform(-7.0, 0.0)), (256, 1e-7), (7, 1.0)]
        for na, y in cases:
            split = PowerSplit.from_z(1.0 + y)
            terms = eve_terms_oracle(na, split.z)
            with mpmath.workdps(30):
                for ne in range(1, na):
                    want = mpmath.fsum(terms[:ne]) / mpmath.log(2)
                    got = capacity_eve(SystemConfig(na, ne), split)
                    assert oracle_rel_err(got, want) <= self.TOL, (na, ne, y)

    @pytest.mark.parametrize("na", [3, 4, 8, 16, 64, 128])
    def test_every_order_far_out_against_mpmath(self, na):
        # past z - 1 = (na-1)(na-2)/2 the seed is the top order and the
        # recurrence runs downward; a per-order Gauss series took millions of
        # terms at z = 1e6
        a = na - 1
        y0 = a * (a - 1) / 2.0
        for z in (1.0 + math.nextafter(y0, 0.0), 1.0 + y0, 1e6):
            split = PowerSplit.from_z(z)
            terms = eve_terms_oracle(na, split.z)
            with mpmath.workdps(30):
                for ne in range(1, na):
                    want = mpmath.fsum(terms[:ne]) / mpmath.log(2)
                    got = capacity_eve(SystemConfig(na, ne), split)
                    assert oracle_rel_err(got, want) <= self.TOL, (na, ne, z)

    def test_both_sides_of_the_recurrence_switch(self):
        at, above = PowerSplit.from_z(2.0), PowerSplit.from_z(math.nextafter(2.0, math.inf))
        assert at.z == 2.0 < above.z
        for na in range(2, 65):
            # just above z = 2 the seed leaves order 0; the reference evaluates
            # each order's own 2F1 once per na, tied to capacity_eve at ne = 1
            # and na - 1 above the switch and at every ne on it
            x = (above.z - na) / (above.z - 1.0)
            scale = (na - 1.0) / (above.z - 1.0)
            partial = [_eve_nats_single(na, above.z)]
            for k in range(1, na - 1):
                term = scale / (na - 1 - k) * ansec.specfun._hyp2f1_1b_c(k + 1, na, x)
                partial.append(partial[-1] + term)
            for ne in (1, na - 1):
                got = capacity_eve(SystemConfig(na, ne), above)
                assert rel_err(got, partial[ne - 1] / LN2) <= 1e-15, (na, ne)
            for ne in range(1, na):
                got = capacity_eve(SystemConfig(na, ne), at)
                assert rel_err(got, partial[ne - 1] / LN2) <= self.TOL, (na, ne)

    @pytest.mark.parametrize("na", [3, 4, 8, 16, 64])
    def test_both_sides_of_each_seed_switch(self, na):
        # at each integer k* the seed moves by one order between two adjacent
        # floats z; one oracle at the lower serves both, as one ulp of z
        # moves C2 by at most about 2e-16 relative
        for kstar in range(1, na):
            below, above = seed_switch(na, kstar)
            terms = eve_terms_oracle(na, below)
            with mpmath.workdps(30):
                for ne in range(1, na):
                    want = mpmath.fsum(terms[:ne]) / mpmath.log(2)
                    for z in (below, above):
                        got = capacity_eve(SystemConfig(na, ne), PowerSplit.from_z(z))
                        assert oracle_rel_err(got, want) <= self.TOL, (na, ne, z)

    def test_seeded_between_the_kernels_against_mpmath(self):
        # 1 < z - 1 < (na-1)(na-2)/2, where each order once took its own series
        rng = random.Random(14)
        for na in [4, 5] + [rng.randint(6, 32) for _ in range(3)] + [rng.randint(33, 256)]:
            a = na - 1
            y = math.exp(rng.uniform(0.0, math.log(a * (a - 1) / 2.0)))
            split = PowerSplit.from_z(1.0 + y)
            terms = eve_terms_oracle(na, split.z)
            with mpmath.workdps(30):
                for ne in range(1, na):
                    want = mpmath.fsum(terms[:ne]) / mpmath.log(2)
                    got = capacity_eve(SystemConfig(na, ne), split)
                    assert oracle_rel_err(got, want) <= self.TOL, (na, ne, split.z)

    @pytest.mark.parametrize("na", [4, 8])
    @pytest.mark.parametrize("phi", [1e-300, 1e-308])
    def test_vanishing_information_power(self, na, phi):
        # z = 1/phi: 1 - x = a/y is below 1e-298, which the oracle's connection
        # series takes directly (x itself is 1 at 30 digits); the top order
        # grows like ln(y/a). At 1e-308 the downward steps must divide by y
        # last, or y (a - k + 1) overflows
        split = PowerSplit(phi)
        terms = eve_terms_oracle(na, split.z)
        with mpmath.workdps(30):
            for ne in range(1, na - 1):
                want = mpmath.fsum(terms[:ne]) / mpmath.log(2)
                got = capacity_eve(SystemConfig(na, ne), split)
                assert oracle_rel_err(got, want) <= self.TOL, (na, ne)

    def test_one_kernel_call_per_evaluation(self, monkeypatch):
        # every order comes from one seed: exactly one S_a(u) kernel or Gauss
        # continued fraction per capacity_eve call, not counting the fraction
        # S_a(u) runs on one of its routes (z = na is avoided: there x = 0 and
        # the seed is exact without either)
        calls, open_calls = [], []

        def counted(*args, _real):
            if not open_calls:
                calls.append(args)
            open_calls.append(args)
            try:
                return _real(*args)
            finally:
                open_calls.pop()

        for name in ("_lerch_sum", "_gauss_cf"):
            real = getattr(ansec.specfun, name)
            monkeypatch.setattr(ansec.specfun, name,
                                lambda *args, _real=real: counted(*args, _real=_real))
        for na in (2, 3, 4, 8, 16, 64):
            for z in (1.5, 3.0, na + 0.5, 10.0 * na, float(na * na), 1e6):
                for ne in range(1, na):
                    calls.clear()
                    capacity_eve(SystemConfig(na, ne), PowerSplit.from_z(z))
                    assert len(calls) == 1, (na, ne, z, calls)

    def test_every_seed_within_the_term_cap(self):
        # capacity_eve at ne = na - 1 runs the seed and the recurrence both
        # ways; the slope adds 2F1(1, ne+1; na+1; x). Any call needing more
        # Gauss continued-fraction terms than the cap raises. The slowest
        # fractions sit just above the first seed switches, where b is small
        # and x = 1 - a/y is near 1 - a, so those points join the random ones
        assert ansec.specfun._LERCH_MAX_TERMS <= 200
        rng = random.Random(17)
        for na in [2, 3, 4, 8, 64, 256, 512, 847, 1024] + [rng.randint(5, 1024) for _ in range(6)]:
            a = na - 1
            ys = [10.0 ** rng.uniform(-6.0, 6.0) for _ in range(24)]
            switches = [a / ((a + 1) / s - 1.0) for s in (1, 2, 3) if s < a]
            ys += [y0 * (1.0 + 10.0 ** -k) for y0 in switches for k in (9, 4, 2)]
            for y in ys:
                split = PowerSplit.from_z(1.0 + y)
                assert math.isfinite(capacity_eve(SystemConfig(na, na - 1), split)), (na, y)
                for ne in {1, 2, na // 2, na - 1} - {0, na}:
                    assert math.isfinite(_dc2_nats_dz(na, ne, split.z)), (na, ne, y)
        with pytest.raises(RuntimeError, match="exceeded 200 terms"):
            hyp2f1_1b_c(3, 8, 0.9999)


class TestEveSingleOracle:
    # The ne = 1 kernel switches route at |u| = 1/2, at y = z - 1 = 1.5 and
    # at u = -1.5; |u| = 0.99 was the switch of an earlier version.
    TOL = 5e-14

    @pytest.mark.parametrize("na", [2, 3, 17, 64, 256])
    def test_both_sides_of_each_switch(self, na):
        a = na - 1
        switches = [(na + 1) / 2, na - 0.99 * a, 2.5, (3 * na - 1) / 2, na + 0.99 * a, na + 1.5 * a]
        for z0 in switches:
            want = lerch_oracle(na, z0)
            sides = [math.nextafter(z0, 0.0), z0, math.nextafter(z0, math.inf)]
            vals = [_eve_nats_single(na, z) for z in sides]
            for z, got in zip(sides, vals):
                assert oracle_rel_err(got, want) <= self.TOL, (na, z)
            # two float steps of z apart: any jump between routes shows here
            assert rel_err(vals[0], vals[2]) <= self.TOL, (na, z0)

    @pytest.mark.parametrize("na", [2, 3, 4, 8, 16, 64])
    def test_listed_points_against_lerch_phi(self, na):
        # near z = 1, on both sides of the z = na parameter collision, and
        # far past it
        zs = [1.001, 1.5, 2.0, na - 1e-7, float(na), na + 1e-7, 30.0, 50.0]
        for z in zs:
            got = _eve_nats_single(na, z)
            assert oracle_rel_err(got, lerch_oracle(na, z)) <= self.TOL, (na, z)

    @pytest.mark.parametrize("na", [20, 21, 22, 256, 512])
    def test_both_sides_of_the_digamma_switch(self, na):
        # near z = 1 the connection series starts from ln a - psi(a): an
        # exact harmonic sum below a = 20, an asymptotic series from there;
        # y = e^-gamma is where that first bracket nearly cancels
        for y in (1e-12, 1e-6, 0.01, math.exp(-0.5772156649015329), 0.9, 1.2, 1.5):
            z = 1.0 + y
            assert oracle_rel_err(_eve_nats_single(na, z), lerch_oracle(na, z)) <= 2e-15, (na, y)

    def test_tabled_digamma_below_the_switch(self):
        # below a = 20, ln a - psi(a) is a tabled constant; forming it as
        # ln a - H_{a-1} cost 2.4e-15 here
        assert oracle_rel_err(_eve_nats_single(19, 2.2), lerch_oracle(19, 2.2)) <= 1e-15

    @settings(max_examples=20)
    @given(na=st.integers(2, 256), u=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
    def test_near_one_against_lerch_phi(self, na, u):
        z = na - u * (na - 1)
        assume(z > 1.0)
        assert oracle_rel_err(_eve_nats_single(na, z), lerch_oracle(na, z)) <= self.TOL

    def test_every_route_within_the_term_cap(self):
        # any call needing more terms than the cap raises, so a dense sweep
        # over every route fails loudly if slow convergence comes back
        assert ansec.specfun._LERCH_MAX_TERMS < 1000
        rng = random.Random(20)
        for na in [2, 3, 4, 8, 16, 64, 256] + [rng.randint(2, 512) for _ in range(8)]:
            a = na - 1
            zs = [na - u * a for u in (rng.uniform(-3.0, 1.0) for _ in range(300))]
            zs += [1.0 + 10.0 ** -k for k in range(1, 16)]
            zs = sorted({z for z in zs if z > 1.0})
            vals = [_eve_nats_single(na, z) for z in zs]
            assert all(math.isfinite(v) and v > 0.0 for v in vals)
            assert all(lo > hi for lo, hi in zip(vals, vals[1:])), na

    @pytest.mark.parametrize(
        "fn,args",
        [
            pytest.param(_eve_nats_single, (4, 2.5), id="4-2.5"),
            pytest.param(_eve_nats_single, (64, 2.0), id="64-2.0"),
            pytest.param(_eve_nats_single, (64, 4.0), id="64-4.0"),
            pytest.param(_eve_nats_single, (8, 12.0), id="8-12.0"),
            pytest.param(hyp2f1_1b_c, (5, 6, 0.3), id="c-b=1"),
            pytest.param(hyp2f1_appendix_closed_form, (8, -20.0, "second-form"), id="appendix"),
        ],
    )
    def test_hitting_the_cap_raises(self, monkeypatch, fn, args):
        # series, connection series, and the continued fraction at u > 0
        # and at u < 0; then the series and the connection series reached
        # through 2F1(1, b; b+1; x) and through the appendix b = 1 route
        monkeypatch.setattr(ansec.specfun, "_LERCH_MAX_TERMS", 3)
        with pytest.raises(RuntimeError, match="exceeded 3 terms"):
            fn(*args)


def dc2_oracle(na: int, z: float) -> mpmath.mpf:
    # d/dz sum_m u^m / (a + m) = -2F1(2, a+1; a+2; u) / (a (a+1)), a = na - 1,
    # at 30 digits with u formed exactly from z
    with mpmath.workdps(30):
        a = na - 1
        u = (na - mpmath.mpf(z)) / a
        return -mpmath.hyp2f1(2, a + 1, a + 2, u) / (a * (a + 1))


class TestDc2Oracle:
    # At ne = 1 the general slope is (S - 1/(z-1))/u, S the C2 kernel, except
    # where S (z-1) is within about 1/16 of 1: there a series of like-signed
    # terms sums the difference. An earlier version switched at |u| = 1/2 and
    # |u| = 0.99, and lost 2.8e-13 at (na 512, u = 0.61).
    TOL = 5e-13
    NAS = [2, 3, 15, 16, 17, 64, 256, 512]

    @pytest.mark.parametrize("na", NAS)
    def test_both_sides_of_each_switch(self, na):
        a = na - 1
        for z0 in (na - 0.5 * a, na + 0.5 * a, na - 0.99 * a, na + 0.99 * a):
            want = dc2_oracle(na, z0)
            sides = [math.nextafter(z0, 0.0), z0, math.nextafter(z0, math.inf)]
            vals = [_dc2_nats_dz(na, 1, z) for z in sides]
            for z, got in zip(sides, vals):
                assert oracle_rel_err(got, want) <= self.TOL, (na, z)
            assert rel_err(vals[0], vals[2]) <= self.TOL, (na, z0)

    @pytest.mark.parametrize("na", NAS)
    def test_across_u_against_hyp2f1(self, na):
        rng = random.Random(na)
        us = [rng.uniform(-3.0, 1.0) for _ in range(12)] + ([0.61] if na == 512 else [])
        for u in us:
            z = na - u * (na - 1)
            got = _dc2_nats_dz(na, 1, z)
            assert oracle_rel_err(got, dc2_oracle(na, z)) <= self.TOL, (na, z)

    def test_hitting_the_cap_raises(self, monkeypatch):
        # the slope runs on C2's own orders and on 2F1(1, ne+1; na+1; x), so the
        # Gauss continued fraction's cap holds (the ne = 1 kernel's caps are
        # TestEveSingleOracle's)
        monkeypatch.setattr(ansec.specfun, "_LERCH_MAX_TERMS", 3)
        with pytest.raises(RuntimeError, match="exceeded 3 terms"):
            _dc2_nats_dz(64, 2, 40.0)


def dc2_every_ne_oracle(na: int, z: float) -> list:
    # dC2/dz in nats for ne = 1..na-1 at 30 digits, term by term from
    # d/dx 2F1(1, b; na; x) = (b/na) 2F1(2, b+1; na+1; x)
    with mpmath.workdps(30):
        zm = mpmath.mpf(z)
        a, y = na - 1, zm - 1
        x = (zm - na) / y
        out, total = [], mpmath.mpf(0)
        for k in range(a):
            term = a / (y * (a - k)) * mpmath.hyp2f1(1, k + 1, na, x)
            dfdx = mpmath.mpf(k + 1) / na * mpmath.hyp2f1(2, k + 2, na + 1, x)
            total += -term / y + a * a / ((a - k) * y ** 3) * dfdx
            out.append(total)
        return out


def dc1_oracle(na: int, p: float, z: float, s2: float) -> mpmath.mpf:
    # dC1/dz in nats at 30 digits: C1 = int_0^inf e^{-ws} (1 - (1+s)^{-na}) ds/s
    # with w = kappa z, so dC1/dz = -kappa int_0^inf e^{-ws} (1 - (1+s)^{-na}) ds
    with mpmath.workdps(30):
        kappa = (1 / mpmath.mpf(p) + s2) / (1 - mpmath.mpf(s2))
        w = kappa * z
        pts = sorted({mpmath.mpf(0), mpmath.mpf(1) / na, 1 / w, 10 / w, 50 / w})
        return -kappa * mpmath.quad(
            lambda s: -mpmath.exp(-w * s) * mpmath.expm1(-na * mpmath.log1p(s)), pts + [mpmath.inf]
        )


class TestSlopeOracle:
    # The closed-form slopes the split solvers find the root of
    TOL = 1e-12

    @pytest.mark.parametrize("na", [2, 3, 4, 8, 16, 64])
    def test_dc2_every_ne_against_mpmath(self, na):
        # near z = na (the telescoped slope divides by z - na), one ulp either
        # side of z = 2 (where C2's seed leaves order 0), near z = 1, and far out
        rng = random.Random(na)
        zs = [na - 1e-9, na + 1e-9, math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0),
              1.0 + 1e-9, 1e6, 1.0 + 10.0 ** rng.uniform(-6.0, 3.0)]
        for z in zs:
            want = dc2_every_ne_oracle(na, z)
            for ne in range(1, na):
                got = _dc2_nats_dz(na, ne, z)
                assert oracle_rel_err(got, want[ne - 1]) <= self.TOL, (na, ne, z)

    @pytest.mark.parametrize("na", [2, 3, 8, 64, 256])
    def test_dc1_against_mpmath(self, na):
        # w = kappa z from about 1e-9 (the e^w E_na term alone) to 1e9
        # (where kappa (e^w E_na(w) - 1/w) cancels by w/na)
        for p, s2, z in [(1e9, 0.0, 1.0 + 1e-9), (1e9, 0.1, 1e6), (1e4, 0.0, 1.8),
                         (10.0, 0.0, 2.0), (0.5, 0.1, 30.0), (1e-3, 0.0, 1e6)]:
            got = _dc1_nats_dz(na, p, z, CsiError(s2) if s2 else None)
            assert oracle_rel_err(got, dc1_oracle(na, p, z, s2)) <= self.TOL, (na, p, s2, z)


class TestSecrecyRate:
    def test_positive_rate_composition(self):
        cfg, p, s = SystemConfig(na=8, ne=2), 100.0, PowerSplit(0.5)
        rep = secrecy_rate(cfg, p, s)
        assert rep.c == rep.c1 - rep.c2 > 0

    def test_clamped_below_critical(self):
        rep = secrecy_rate(SystemConfig(na=2), 1.0, PowerSplit(0.5))
        assert rep.c == 0.0
        assert rep.c1 < rep.c2

    @pytest.mark.parametrize(
        "na,snr_db",
        [(4, -2.62), (2, 3.01), (6, -4.89), (8, -6.36), (10, -7.45)],
    )
    def test_equal_split_break_even_points(self, na, snr_db):
        # two-decimal break-even SNRs from the reference critical-SNR table
        rep = secrecy_rate(SystemConfig(na=na), 10.0 ** (snr_db / 10.0), PowerSplit(0.5))
        assert abs(rep.c1 - rep.c2) <= 1e-3

    def test_all_noise_and_all_signal_are_both_bad(self):
        cfg, p = SystemConfig(na=4), 100.0
        mid = secrecy_rate(cfg, p, PowerSplit(0.5)).c
        lo = secrecy_rate(cfg, p, PowerSplit(1e-6)).c
        hi = secrecy_rate(cfg, p, PowerSplit(1.0 - 1e-6)).c
        assert lo < 1e-3
        assert hi < mid
        assert mid > 1.0


class TestImperfectCsi:
    @pytest.mark.parametrize(
        "na,p,phi",
        [(2, 2.0, 0.5), (4, 10.0, 0.5), (8, 100.0, 0.3), (6, 1.0, 0.8)],
    )
    def test_zero_error_is_bitwise_identical(self, na, p, phi):
        cfg, s = SystemConfig(na=na), PowerSplit(phi)
        assert capacity_bob(cfg, p, s, CsiError(0.0)) == capacity_bob(cfg, p, s)

    def test_zero_error_is_bitwise_identical_on_random_inputs(self):
        # z*(0 + 1/p)/1 and z/p round differently at some inputs, so the
        # zero-error form must reduce to the perfect-CSI argument z/p
        # exactly, not just to 1 ulp.
        rng = random.Random(20100)
        for _ in range(2000):
            cfg = SystemConfig(na=rng.randint(2, 64))
            p = 10.0 ** rng.uniform(-3.0, 6.0)
            s = PowerSplit(rng.uniform(0.01, 0.99))
            perfect = scaled_expint_sum(cfg.na, s.z / p) / LN2
            assert capacity_bob(cfg, p, s) == perfect, (cfg, p, s)
            assert capacity_bob(cfg, p, s, CsiError(0.0)) == perfect, (cfg, p, s)

    def test_zero_error_rate_report(self):
        cfg, p, s = SystemConfig(na=4, ne=2), 10.0, PowerSplit(0.5)
        a = secrecy_rate(cfg, p, s, CsiError(0.0))
        b = secrecy_rate(cfg, p, s)
        assert (a.c1, a.c2, a.c) == (b.c1, b.c2, b.c)

    @pytest.mark.parametrize(
        "na,s2,snr_db",
        [(2, 0.2, 6.99), (10, 0.2, -6.28), (4, 0.1, -1.88), (6, 0.1, -4.27)],
    )
    def test_estimation_error_break_even_points(self, na, s2, snr_db):
        # two-decimal break-even SNRs from the reference critical-SNR table
        rep = secrecy_rate(
            SystemConfig(na=na), 10.0 ** (snr_db / 10.0), PowerSplit(0.5), CsiError(s2)
        )
        assert abs(rep.c1 - rep.c2) <= 2e-3

    def test_ceiling_at_infinite_power(self):
        # with estimation error C1 saturates as p grows; p = inf must give
        # that ceiling, not 0 * inf
        cfg, s, err = SystemConfig(na=4), PowerSplit(0.5), CsiError(0.1)
        ceiling = scaled_expint_sum(4, s.z * err.sigma_tilde2 / err.sigma_hat2) / LN2
        assert capacity_bob(cfg, math.inf, s, err) == ceiling
        assert capacity_bob(cfg, 1e6, s, err) < ceiling

    @pytest.mark.parametrize("err", [None, CsiError(0.0)])
    def test_infinite_power_without_error_is_refused(self, err):
        # perfect estimates give no ceiling; specfun's x > 0 message named neither
        cfg, s = SystemConfig(na=4), PowerSplit(0.5)
        with pytest.raises(ValueError, match=r"power inf needs a channel-estimation error"):
            capacity_bob(cfg, math.inf, s, err)
        with pytest.raises(ValueError, match=r"power inf needs a channel-estimation error"):
            secrecy_rate(cfg, math.inf, s, err)

    def test_monotone_in_error(self):
        cfg, p, s = SystemConfig(na=6), 20.0, PowerSplit(0.5)
        vals = [
            capacity_bob(cfg, p, s, CsiError(s2))
            for s2 in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "na,s2,p,phi",
        [(4, 0.1, 10.0, 0.5), (2, 0.2, 5.0, 0.5), (8, 0.05, 2.0, 0.4)],
    )
    def test_against_gauss_laguerre(self, na, s2, p, phi):
        # channel-gain expectation with shrunk estimate power and leaked-noise floor
        cfg, s = SystemConfig(na=na), PowerSplit(phi)
        got = capacity_bob(cfg, p, s, CsiError(s2))
        coef = s.sigma_u2(p) * (1.0 - s2) / (s2 * p + 1.0)
        assert rel_err(got, gauss_laguerre_log_mean(na, coef)) < 1e-8

    def test_error_saps_rate_smoothly(self):
        cfg, p, s = SystemConfig(na=8, ne=2), 100.0, PowerSplit(0.5)
        perfect = secrecy_rate(cfg, p, s).c
        slight = secrecy_rate(cfg, p, s, CsiError(1e-6)).c
        assert 0.0 < perfect - slight < 1e-3


class TestLargeNaRate:
    def test_matches_exact_at_64(self):
        cfg, p, s = SystemConfig(na=64, ne=2), 10.0, PowerSplit(0.5)
        approx = secrecy_rate_large_na(cfg, p, s)
        exact = secrecy_rate(cfg, p, s).c
        assert abs(approx - exact) < 0.1

    def test_gap_shrinks_with_antennas(self):
        p, s = 10.0, PowerSplit(0.5)
        gaps = []
        for na in (8, 16, 32, 64):
            cfg = SystemConfig(na=na, ne=2)
            gaps.append(abs(secrecy_rate_large_na(cfg, p, s) - secrecy_rate(cfg, p, s).c))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_leakage_term_closed_value(self):
        # at z=2, ne=1 the leakage term is e * E_1(1); mpmath mp.dps=40
        na, p = 32, 10.0
        got = secrecy_rate_large_na(SystemConfig(na=na), p, PowerSplit(0.5))
        want = (math.log(na * p / 2.0) - 0.59634736232319407434) / LN2
        assert rel_err(got, want) < 1e-12

    def test_clamped_at_tiny_power(self):
        got = secrecy_rate_large_na(SystemConfig(na=8), 1e-6, PowerSplit(0.5))
        assert got == 0.0
