"""Criterion 10: the abstract's findings, stated across a grid.

Each test checks one claim of the source paper's abstract on a fixed grid
of antenna counts and SNRs, prints one `[criterion 10] PASS/FAIL` line
(visible under `pytest -s`) with its elapsed time, then asserts. The
claims share a runtime budget of 3 s. A claim that fails on its grid is a
finding about the model: record it, and do not shrink the grid.
"""
import time

from ansec.optimize import critical_snr, from_db, high_snr_optimal_z, optimize_phi
from ansec.secrecy import CsiError, PowerSplit, SystemConfig, secrecy_rate

NA_GRID = (4, 8, 16, 32)
SNR_DB = (10.0, 20.0, 30.0)
BUDGET_S = 3.0
_spent = []


def report(claim: str, ok: bool, elapsed: float, detail: str) -> None:
    _spent.append(elapsed)
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion 10] {verdict} ({elapsed:.2f}s) {claim}: {detail}")
    assert sum(_spent) < BUDGET_S, f"criterion 10 took {sum(_spent):.2f}s"


def falling_steps(values):
    """(steps, violations): neighbours that do not fall strictly."""
    pairs = list(zip(values, values[1:]))
    return len(pairs), [pair for pair in pairs if not pair[1] < pair[0]]


def test_more_collusion_more_noise():
    # phi* (the information-power share) falls strictly as ne grows
    t0 = time.perf_counter()
    steps, bad = 0, []
    for na in NA_GRID:
        for snr in SNR_DB:
            p = from_db(snr)
            phis = [optimize_phi(SystemConfig(na, ne), p).phi_star
                    for ne in range(1, min(na, 9))]
            n, violations = falling_steps(phis)
            steps += n
            bad += [(na, snr, v) for v in violations]
    elapsed = time.perf_counter() - t0
    report("more collusion, more noise", not bad, elapsed,
           f"phi* falls with ne in {steps - len(bad)}/{steps} steps")
    assert steps == 66
    assert not bad, bad


def test_more_collusion_more_noise_at_high_snr():
    # the same claim as p -> inf: the stationary z* = 1/phi* of the exact
    # rate rises strictly with ne
    t0 = time.perf_counter()
    steps, bad = 0, []
    for na in NA_GRID:
        phis = [1.0 / high_snr_optimal_z(SystemConfig(na, ne), "exact")
                for ne in range(1, min(na, 9))]
        n, violations = falling_steps(phis)
        steps += n
        bad += [(na, v) for v in violations]
    elapsed = time.perf_counter() - t0
    report("more collusion, more noise at p = inf", not bad, elapsed,
           f"z* rises with ne in {steps - len(bad)}/{steps} steps")
    assert steps == 22
    assert not bad, bad


def test_imperfect_csi_more_noise():
    # phi* falls strictly as the channel-estimation error grows, at ne = 1
    t0 = time.perf_counter()
    steps, bad = 0, []
    for na in NA_GRID:
        for snr in SNR_DB:
            p = from_db(snr)
            phis = [optimize_phi(SystemConfig(na, 1), p, CsiError(s2) if s2 else None).phi_star
                    for s2 in (0.0, 0.05, 0.1, 0.2, 0.3)]
            n, violations = falling_steps(phis)
            steps += n
            bad += [(na, snr, v) for v in violations]
    elapsed = time.perf_counter() - t0
    report("imperfect CSI, more noise", not bad, elapsed,
           f"phi* falls with sigma_tilde2 in {steps - len(bad)}/{steps} steps")
    assert steps == 48
    assert not bad, bad


def test_bound_tight_at_low_snr():
    # at equal power the bound-minus-exact critical-SNR gap (dB) shrinks
    # strictly with na, and the bound never undercuts the exact threshold
    t0 = time.perf_counter()
    split = PowerSplit(0.5)
    gaps = {}
    for ne, nas in ((1, (2, 4, 8, 16, 32, 64)), (2, (4, 8, 16, 32, 64))):
        gaps[ne] = []
        for na in nas:
            result = critical_snr(SystemConfig(na, ne), split)
            gaps[ne].append(result.p_c_bound_db - result.p_c_exact_db)
    below = [(ne, g) for ne, row in gaps.items() for g in row if g < 0.0]
    not_shrinking = {ne: falling_steps(row)[1] for ne, row in gaps.items()}
    ok = not below and not any(not_shrinking.values())
    elapsed = time.perf_counter() - t0
    detail = "; ".join(f"ne={ne}: gap {row[0]:.2f} -> {row[-1]:.2f} dB"
                       for ne, row in gaps.items())
    report("the bound is tight at low SNR", ok, elapsed, detail)
    assert not below, below
    assert not any(not_shrinking.values()), not_shrinking


def test_equal_power_near_optimal_single_eavesdropper():
    # with one eavesdropper, splitting power equally loses under 1% of
    # the optimal rate
    t0 = time.perf_counter()
    worst, worst_cell = 0.0, None
    bad = []
    for na in (2, 4, 8, 16, 32):
        cfg = SystemConfig(na, 1)
        for snr in SNR_DB:
            p = from_db(snr)
            best = optimize_phi(cfg, p).c_star
            loss = best - secrecy_rate(cfg, p, PowerSplit(0.5)).c
            if loss >= 0.01 * best:
                bad.append((na, snr, loss, best))
            if loss > worst:
                worst, worst_cell = loss, (na, snr)
    elapsed = time.perf_counter() - t0
    report("equal power is near optimal with one eavesdropper", not bad, elapsed,
           f"worst loss {worst:.4f} bits at (na, snr_db) = {worst_cell}")
    assert not bad, bad
