"""Seeded item streams, item execution and the per-item correctness gate.

An item is one request a researcher would make: an `ansec` command line
run in-process through `ansec.cli.main`, or a short library call. Items
come in rounds. Every round of a workload has the same slots, which fix
its cost mix: request kind, antenna counts, sample counts and the bands
that SNR, point count and eavesdropper count are drawn from. The seed
draws everything else (the values inside those bands, power split,
estimation error, Monte Carlo seed) and the order inside the round. Rounds never repeat an item, so a cache that only helps on
repeated identical requests gains nothing here.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ansec import cli, montecarlo, secrecy
from ansec.optimize import from_db, optimize_phi
from ansec.secrecy import PowerSplit, SystemConfig

# Two-decimal equal-power (phi = 0.5) critical-SNR table of the paper,
# keyed by (na, sigma_tilde2, kind); the acceptance suite checks it to
# within 0.05 dB, and so does the gate here.
TABLE1_REFERENCE = {
    (2, 0.0, "exact"): 3.01, (4, 0.0, "exact"): -2.62, (6, 0.0, "exact"): -4.89,
    (8, 0.0, "exact"): -6.36, (10, 0.0, "exact"): -7.45,
    (2, 0.0, "bound"): 6.02, (4, 0.0, "bound"): -1.97, (6, 0.0, "bound"): -4.46,
    (8, 0.0, "bound"): -6.01, (10, 0.0, "bound"): -7.14,
    (2, 0.1, "exact"): 4.56, (4, 0.1, "exact"): -1.88, (6, 0.1, "exact"): -4.27,
    (8, 0.1, "exact"): -5.79, (10, 0.1, "exact"): -6.90,
    (2, 0.1, "bound"): 9.03, (4, 0.1, "bound"): -1.20, (6, 0.1, "bound"): -3.83,
    (8, 0.1, "bound"): -5.43, (10, 0.1, "bound"): -6.59,
    (2, 0.2, "exact"): 6.99, (4, 0.2, "exact"): -1.01, (6, 0.2, "exact"): -3.55,
    (8, 0.2, "exact"): -5.13, (10, 0.2, "exact"): -6.28,
    (2, 0.2, "bound"): math.inf, (4, 0.2, "bound"): -0.26, (6, 0.2, "bound"): -3.08,
    (8, 0.2, "bound"): -4.76, (10, 0.2, "bound"): -5.96,
}
TABLE1_TOL_DB = 0.05
PHI_PROBE = 1e-3  # an optimum must beat the rate this far away in phi
RATE_TOL = 1e-9  # bits; covers the CSV's 12 significant digits
MC_FAIL_SIGMAS = 5.0
SINGLE_DRAWS = 1000
CCDF_POINTS = 20_000

# A slot fixes what sets an item's cost: the request kind, na, the
# stratum ne is drawn from and the band its SNR or point count is drawn
# from. The seed draws the rest. Bands rotate along each slot list so
# that na and SNR stay uncorrelated.
_SNR_BANDS = ((-5.0, 5.0), (15.0, 25.0), (5.0, 15.0), (25.0, 35.0))
_POINT_BANDS = ((20, 27), (36, 43), (28, 35), (44, 50))


def _slots(kind: str, cells: tuple, points: int = 1) -> list[tuple]:
    return [(kind, na, stratum, i % 4, points) for i, (na, stratum) in enumerate(cells)]


# design-sweep slots: (kind, na, ne stratum, band, SNR points). na is
# log-spread over 2..64; the stratum picks ne in 1..min(na-1, 16).
_DESIGN_SLOTS = (
    _slots("opt-phi", ((2, "one"), (3, "high"), (4, "mid"), (6, "one"), (8, "high"),
                       (12, "mid"), (16, "one"), (24, "high"), (32, "mid"), (48, "one"),
                       (64, "high")))
    + [("sweep-opt", 4, "high", 0, 6), ("sweep-opt", 12, "one", 1, 4),
       ("sweep-opt", 32, "mid", 2, 3)]
    + _slots("sweep-fixed", ((2, "one"), (3, "mid"), (4, "high"), (6, "mid"), (8, "one"),
                             (12, "high"), (16, "mid"), (24, "one"), (32, "high"),
                             (48, "mid"), (64, "one")))
    + _slots("critical-snr", ((2, "one"), (3, "high"), (4, "one"), (6, "high"), (8, "mid"),
                              (12, "one"), (16, "high"), (24, "mid"), (32, "one"),
                              (48, "high"), (64, "mid")))
    + [("table1", 2, "one", 0, len(TABLE1_REFERENCE))]
)
# adaptive-split slots: (na, ne, lowest SNR of a 3 dB band). Mostly
# small arrays with ne in {1, 2}, plus two large ones. An odd slot count
# puts the median item inside one slot's cost range, not between two.
_ADAPTIVE_SLOTS = tuple(
    (na, ne, 5.0 + 3.0 * band) for (na, ne), band in zip(
        ((2, 1), (4, 1), (8, 1), (12, 1), (16, 1), (3, 2), (6, 2), (32, 1), (64, 1)),
        (0, 4, 8, 3, 7, 2, 6, 1, 5))
)
# mc-validate slots: (kind, na, ne, samples or points, with CSI error).
# Cells cover ne = 1 (scalar Gram), mid ne and ne = na - 1 (worst
# conditioned); 32768 samples fit one chunk, 100000 need several.
_MC_SLOTS = (
    ("validate", 2, 1, 100_000, False), ("validate", 4, 1, 32_768, True),
    ("validate", 8, 1, 100_000, False), ("validate", 6, 3, 32_768, False),
    ("validate", 8, 4, 32_768, True), ("validate", 3, 2, 100_000, True),
    ("validate", 4, 3, 32_768, False), ("validate", 6, 5, 32_768, False),
    ("draws", 6, 3, SINGLE_DRAWS, False), ("ccdf", 16, 4, CCDF_POINTS, False),
)


@dataclass(frozen=True)
class Item:
    """One request: a CLI argv, or the parameters of a library call."""

    kind: str
    na: int
    ne: int
    argv: tuple[str, ...] = ()
    params: tuple[tuple[str, float], ...] = ()

    def param(self, name: str) -> float:
        return dict(self.params)[name]


@dataclass
class Verdict:
    """Outcome of the correctness gate for one executed item."""

    ok: bool
    reason: str = ""
    three_sigma_miss: bool = False
    draws: int = 0  # single channel draws, kept and discarded
    gap: Optional[float] = None  # adaptive minus fixed-split optimum, bits


@dataclass
class Outcome:
    """What executing an item produced, before it is checked."""

    code: Optional[int] = None
    error: Optional[BaseException] = None
    values: Optional[np.ndarray] = None
    discarded: int = 0


def _snr(v: float) -> str:
    # Always the --snr-db=<v> form: argparse rejects "--snr-db -10:40:1".
    return f"--snr-db={v:g}"


def _ne_in(rng: random.Random, na: int, stratum: str) -> int:
    # Narrow strata keep each slot's cost, which grows with ne, steady.
    top = min(na - 1, 16)
    if stratum == "one" or top == 1:
        return 1
    mid_lo = max(2, top // 4)
    mid_hi = max(mid_lo, top // 2)
    if stratum == "mid":
        return rng.randint(mid_lo, mid_hi)
    return rng.randint(min(max(mid_hi + 1, 3 * top // 4), top), top)


def _csi(rng: random.Random, chance: float = 1.0 / 3.0) -> tuple[str, ...]:
    if rng.random() < chance:
        return ("--sigma-tilde2", f"{rng.uniform(0.05, 0.3):.3f}")
    return ()


def _design_item(rng: random.Random, slot: tuple) -> Item:
    # About a third of requests carry channel-estimation error.
    kind, na, stratum, band, points = slot
    ne = _ne_in(rng, na, stratum)
    base = ("--na", str(na), "--ne", str(ne))
    lo, hi = _SNR_BANDS[band]
    if kind == "opt-phi":
        argv = ("opt-phi", *base, _snr(round(rng.uniform(lo, hi), 2)), *_csi(rng))
    elif kind == "sweep-opt":
        start = rng.randrange(int(4 * lo), int(4 * hi)) / 4.0
        step = rng.choice((2.0, 2.5, 3.0))
        argv = ("sweep", *base, _snr_range(start, step, points), "--phi", "opt", *_csi(rng))
    elif kind == "sweep-fixed":
        points = rng.randint(*_POINT_BANDS[band])
        start = rng.randrange(-40, 1) / 4.0
        step = rng.choice((0.5, 0.75, 1.0, 1.25))
        argv = ("sweep", *base, _snr_range(start, step, points),
                "--phi", f"{rng.uniform(0.1, 0.9):.4f}", *_csi(rng))
    elif kind == "critical-snr":
        argv = ("critical-snr", *base, "--phi", f"{rng.uniform(0.1, 0.9):.4f}", *_csi(rng))
    else:
        argv = ("table1", "--phi", "0.5")
    return Item(kind, na, ne, argv, (("points", float(points)),))


def _snr_range(start: float, step: float, points: int) -> str:
    # start, step and stop are exact binary fractions, so the inclusive
    # range parses to exactly `points` values.
    return f"--snr-db={start:g}:{start + (points - 1) * step:g}:{step:g}"


def _adaptive_item(rng: random.Random, slot: tuple) -> Item:
    na, ne, snr_lo = slot
    snr = round(rng.uniform(snr_lo, snr_lo + 3.0), 2)
    argv = ("opt-phi-adaptive", "--na", str(na), "--ne", str(ne), _snr(snr))
    return Item("opt-phi-adaptive", na, ne, argv, (("snr_db", snr),))


def _mc_item(rng: random.Random, slot: tuple) -> Item:
    kind, na, ne, count, with_csi = slot
    seed = rng.randrange(2**31)
    phi = round(rng.uniform(0.2, 0.8), 4)
    if kind == "validate":
        argv = ("validate", "--na", str(na), "--ne", str(ne),
                _snr(round(rng.uniform(-5.0, 25.0), 2)), "--phi", f"{phi:.4f}",
                "--samples", str(count), "--seed", str(seed), *_csi(rng, float(with_csi)))
        return Item(kind, na, ne, argv)
    if kind == "draws":
        return Item(kind, na, ne, (), (("n", float(count)), ("seed", float(seed)),
                                       ("phi", phi)))
    return Item(kind, na, ne, (), (("n", float(count)),
                                   ("x_max", round(rng.uniform(2.0, 40.0), 3))))


_MAKERS = {
    "design-sweep": (_DESIGN_SLOTS, _design_item),
    "adaptive-split": (_ADAPTIVE_SLOTS, _adaptive_item),
    "mc-validate": (_MC_SLOTS, _mc_item),
}


def rounds(workload: str, seed: int) -> Iterator[list[Item]]:
    """Endless seeded stream of rounds; each round is a shuffled slot set."""
    slots, make = _MAKERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        batch = [make(rng, slot) for slot in slots]
        rng.shuffle(batch)
        yield batch


def warmup_items(workload: str) -> list[Item]:
    """One small fixed item per item kind, run before anything is timed."""
    if workload == "design-sweep":
        argvs = (
            ("opt-phi", "--na", "4", "--ne", "2", "--snr-db=10", "--sigma-tilde2", "0.1"),
            ("sweep", "--na", "4", "--ne", "1", "--snr-db=0:10:5", "--phi", "opt"),
            ("sweep", "--na", "4", "--ne", "2", "--snr-db=-10:10:1", "--phi", "0.5"),
            ("critical-snr", "--na", "4", "--ne", "1", "--phi", "0.5"),
            ("table1", "--phi", "0.5"),
        )
        return [Item(a[0], 4, 1, a) for a in argvs]
    if workload == "adaptive-split":
        return [Item("opt-phi-adaptive", 2, 1,
                     ("opt-phi-adaptive", "--na", "2", "--ne", "1", "--snr-db=10"))]
    return [
        Item("validate", 4, 2, ("validate", "--na", "4", "--ne", "2", "--snr-db=10",
                                "--samples", "32768", "--sigma-tilde2", "0.1")),
        Item("draws", 4, 2, (), (("n", 100.0), ("seed", 0.0), ("phi", 0.5))),
        Item("ccdf", 4, 2, (), (("n", 1000.0), ("x_max", 10.0))),
    ]


def _ccdf_xs(item: Item) -> np.ndarray:
    return np.linspace(0.0, item.param("x_max"), int(item.param("n")))


def execute(item: Item, csv_path: str) -> Outcome:
    """Run one item through the public API; this is the timed region."""
    try:
        if item.argv:
            return Outcome(code=cli.main([*item.argv, "--output", csv_path]))
        cfg = SystemConfig(item.na, item.ne)
        if item.kind == "draws":
            rng = np.random.default_rng(int(item.param("seed")))
            values, discarded = [], 0
            for _ in range(int(item.param("n"))):
                draw = montecarlo.sample_channel(cfg, rng)
                try:
                    values.append(montecarlo.sir_mmse(draw))
                except montecarlo.GramConditionError:
                    discarded += 1
            return Outcome(values=np.array(values), discarded=discarded)
        # One call per point, so every version of the package is measured
        # on the same calls.
        return Outcome(values=np.array([secrecy.ccdf_sir(float(x), cfg) for x in _ccdf_xs(item)]))
    except Exception as exc:  # an item that raises is a failed item, not a crash
        return Outcome(error=exc)


def _finite(*values: object) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def _rate_at(item: Item, snr: float, phi: float, s2: float, path: str) -> float:
    # Asked through `ansec rate`, whose interface is pinned, so the gate
    # keeps working when library functions are merged or renamed.
    phi = min(max(phi, 1e-6), 1.0 - 1e-6)
    argv = ["rate", "--na", str(item.na), "--ne", str(item.ne), f"--snr-db={snr!r}",
            "--phi", repr(phi), "--output", path]
    if s2 > 0.0:
        argv += ["--sigma-tilde2", repr(s2)]
    if cli.main(argv) != 0:
        raise ValueError(f"ansec {' '.join(argv)} failed")
    return cli.read_run_csv(path)[0]["c"]


def _beats_neighbours(item: Item, row: dict, phi: float, c: float, path: str) -> bool:
    snr, s2 = row["snr_db"], row["sigma_tilde2"]
    best = max(_rate_at(item, snr, phi + d, s2, path) for d in (-PHI_PROBE, PHI_PROBE))
    return c >= best - RATE_TOL


def _check_design(item: Item, rows: list[dict], probe_path: str) -> Verdict:
    kind = item.kind
    if kind == "table1":
        if len(rows) != len(TABLE1_REFERENCE):
            return Verdict(False, f"table1 has {len(rows)} rows")
        for row in rows:
            want = TABLE1_REFERENCE.get((int(row["na"]), row["sigma_tilde2"], row["kind"]))
            got = row["p_c_db"]
            if want is None:
                return Verdict(False, f"table1 row {row} is not in the reference table")
            same = math.isinf(got) if math.isinf(want) else abs(got - want) <= TABLE1_TOL_DB
            if not same:
                return Verdict(False, f"table1 {row} differs from {want}")
        return Verdict(True)
    want_rows = int(item.param("points"))
    if len(rows) != want_rows:
        return Verdict(False, f"{len(rows)} rows, expected {want_rows}")
    for row in rows:
        if kind == "critical-snr":
            exact, bound = row["p_c_exact_db"], row["p_c_bound_db"]
            if not exact <= bound + 1e-9:
                return Verdict(False, f"exact critical SNR {exact} above bound {bound}")
            continue
        if kind == "opt-phi":
            phi, c = row["phi_star"], row["c_star"]
            if not (_finite(phi, c) and c >= 0.0):
                return Verdict(False, f"non-finite optimum {row}")
        else:
            phi, c, c1, c2 = row["phi"], row["c"], row["c1"], row["c2"]
            if not _finite(phi, c, c1, c2):
                return Verdict(False, f"non-finite rate row {row}")
            if abs(c - max(c1 - c2, 0.0)) > RATE_TOL * max(1.0, abs(c1)):
                return Verdict(False, f"c != max(c1 - c2, 0) in {row}")
        if kind != "sweep-fixed" and not _beats_neighbours(item, row, phi, c, probe_path):
            return Verdict(False, f"optimum {c} beaten at phi {phi} +- {PHI_PROBE}")
    return Verdict(True)


def _check_adaptive(item: Item, rows: list[dict]) -> Verdict:
    if len(rows) != 1:
        return Verdict(False, f"{len(rows)} rows, expected 1")
    value = rows[0]["c_adaptive"]
    if not _finite(value):
        return Verdict(False, f"non-finite adaptive rate {value}")
    cfg = SystemConfig(item.na, item.ne)
    fixed = optimize_phi(cfg, from_db(item.param("snr_db"))).c_star
    gap = value - fixed
    ok = gap >= -RATE_TOL
    return Verdict(ok, "" if ok else f"adaptive rate below the fixed optimum by {-gap}", gap=gap)


def _check_validate(item: Item, code: int, rows: list[dict]) -> Verdict:
    # c1 and c2 come from one stream of joint draws; the imperfect-CSI
    # rate draws a second stream of the same length.
    want = 3 if "--sigma-tilde2" in item.argv else 2
    if len(rows) != want:
        return Verdict(False, f"{len(rows)} rows, expected {want}")
    for row in rows:
        closed, mean, stderr, dev = row["closed"], row["mc"], row["stderr"], row["abs_dev"]
        if not _finite(closed, mean, stderr, dev):
            return Verdict(False, f"non-finite validation row {row}")
        if dev > MC_FAIL_SIGMAS * stderr:
            return Verdict(False, f"{row['quantity']} off by {dev / stderr:.1f} stderr")
    return Verdict(True, three_sigma_miss=code == 1)


def _check_draws(item: Item, out: Outcome) -> Verdict:
    # The single-draw path against the closed-form eavesdropper capacity.
    xs = out.values
    kept = int(xs.size)
    if kept + out.discarded != int(item.param("n")) or kept < 2:
        return Verdict(False, f"{kept} kept + {out.discarded} discarded draws")
    if not (np.all(np.isfinite(xs)) and np.all(xs >= 0.0)):
        return Verdict(False, "non-finite or negative SIR statistic")
    split = PowerSplit(item.param("phi"))
    rates = np.log2(1.0 + (item.na - 1.0) / (split.z - 1.0) * xs)
    closed = secrecy.capacity_eve(SystemConfig(item.na, item.ne), split)
    stderr = float(rates.std(ddof=1)) / math.sqrt(kept)
    dev = abs(float(rates.mean()) - closed)
    if dev > MC_FAIL_SIGMAS * stderr:
        return Verdict(False, f"single draws off by {dev / stderr:.1f} stderr")
    return Verdict(True, draws=kept + out.discarded)


def _check_ccdf(item: Item, out: Outcome) -> Verdict:
    # P(X > x) is P(Binomial(na - 1, x / (1 + x)) < ne): scipy's binomial
    # CDF is an independent reference for the closed form.
    from scipy.special import bdtr

    xs = _ccdf_xs(item)
    ref = bdtr(item.ne - 1, item.na - 1, xs / (1.0 + xs))
    got = out.values
    if got.shape != xs.shape or not np.all(np.isfinite(got)):
        return Verdict(False, "ccdf curve has the wrong shape or non-finite values")
    worst = float(np.max(np.abs(got - ref)))
    if worst > 1e-12:
        return Verdict(False, f"ccdf deviates from the binomial reference by {worst:.2e}")
    return Verdict(True)


def check(item: Item, out: Outcome, csv_path: str) -> Verdict:
    """Correctness gate for one item; runs outside the timed region."""
    if out.error is not None:
        return Verdict(False, f"raised {type(out.error).__name__}: {out.error}")
    if item.kind == "draws":
        return _check_draws(item, out)
    if item.kind == "ccdf":
        return _check_ccdf(item, out)
    if out.code not in (0, 1) or (out.code == 1 and item.kind != "validate"):
        return Verdict(False, f"exit code {out.code}")
    try:
        rows = cli.read_run_csv(csv_path)
        if item.kind == "validate":
            return _check_validate(item, out.code, rows)
        if item.kind == "opt-phi-adaptive":
            return _check_adaptive(item, rows)
        return _check_design(item, rows, csv_path + ".probe")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return Verdict(False, f"CSV output is unreadable or malformed: {exc!r}")
