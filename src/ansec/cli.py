"""Command-line front end.

Subcommands map one-to-one onto the library surface: point rates and
SNR sweeps, fixed and adaptive power-split optimization, critical-SNR
solving, the reference critical-SNR table, and a closed-form versus
simulation validation gate. Results are written as CSV (stdout by
default); SNR values cross the dB/linear boundary only here. Exit
codes: 0 success, 1 validation failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO, Union

from .montecarlo import mc_capacities, mc_secrecy_rate_imperfect
from .optimize import (
    critical_snr,
    from_db,
    optimize_phi,
    optimize_phi_adaptive,
)
from .secrecy import (
    CsiError,
    PowerSplit,
    SystemConfig,
    _is_int,
    secrecy_rate,
    secrecy_rate_imperfect,
)

_COMMANDS = (
    "rate",
    "sweep",
    "opt-phi",
    "opt-phi-adaptive",
    "critical-snr",
    "table1",
    "validate",
)
_TABLE1_NA = (2, 4, 6, 8, 10)
_TABLE1_S2 = (0.0, 0.1, 0.2)
_NEGATIVE_NUMBER = re.compile(r"-[0-9.]")
_CONFIG_TYPES = {
    "na": int,
    "ne": int,
    "snr_db": str,
    "phi": str,
    "sigma_tilde2": float,
    "samples": int,
    "seed": int,
    "output": str,
    "quad_order": int,
}


@dataclass(frozen=True)
class RunSpec:
    """A fully parsed, validated request for one CLI run."""

    command: str
    na: int = 4
    ne: int = 1
    snr_db: tuple[float, ...] = (10.0,)
    phi: Union[float, str] = 0.5
    sigma_tilde2: float = 0.0
    samples: int = 100_000
    seed: int = 0
    output: str = "-"
    quad_order: int = 64
    debug: bool = False

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not _is_int(self.na) or self.na < 2:
            raise ValueError(f"--na must be an integer >= 2, got {self.na!r}")
        if not _is_int(self.ne) or self.ne < 1:
            raise ValueError(f"--ne must be an integer >= 1, got {self.ne!r}")
        if self.na <= self.ne:
            raise ValueError(
                f"--na must exceed --ne, got na={self.na}, ne={self.ne}"
            )
        if len(self.snr_db) == 0:
            raise ValueError("--snr-db produced an empty range")
        if any(not math.isfinite(s) for s in self.snr_db):
            raise ValueError("--snr-db values must be finite")
        if isinstance(self.phi, str):
            if self.phi != "opt":
                raise ValueError(f"--phi must be a number in (0, 1) or 'opt', got {self.phi!r}")
        elif not 0.0 < self.phi < 1.0:
            raise ValueError(f"--phi must lie in (0, 1), got {self.phi!r}")
        if not 0.0 <= self.sigma_tilde2 < 1.0:
            raise ValueError(
                f"--sigma-tilde2 must lie in [0, 1), got {self.sigma_tilde2!r}"
            )
        if not _is_int(self.samples) or self.samples < 2:
            raise ValueError(f"--samples must be an integer >= 2, got {self.samples!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"--seed must be a nonnegative integer, got {self.seed!r}")
        if not _is_int(self.quad_order) or self.quad_order < 2:
            raise ValueError(
                f"--quad-order must be an integer >= 2, got {self.quad_order!r}"
            )

    @property
    def system(self) -> SystemConfig:
        return SystemConfig(na=self.na, ne=self.ne)

    @property
    def csi_error(self) -> Optional[CsiError]:
        if self.sigma_tilde2 > 0.0:
            return CsiError(self.sigma_tilde2)
        return None


def parse_snr_db(text: str) -> tuple[float, ...]:
    """Parse --snr-db: a scalar like '10' or a range 'start:stop:step'."""
    if ":" not in text:
        return (float(text),)
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"ranges take the form start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise ValueError(f"range step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"range stop must not precede start, got {text!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def _parse_phi(text: str) -> Union[float, str]:
    if text == "opt":
        return "opt"
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"--phi must be a number or 'opt', got {text!r}") from exc


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _write_rows(output: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    def emit(stream: TextIO) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if output == "-":
        emit(sys.stdout)
    else:
        with open(output, "w", newline="") as stream:
            emit(stream)


def read_run_csv(path: str) -> list[dict[str, object]]:
    """Read back a CSV produced by this CLI, reparsing numeric fields.

    'inf' round-trips to math.inf; 'true'/'false' to bool; anything that
    does not parse as a number stays a string.
    """
    records: list[dict[str, object]] = []
    with open(path, newline="") as stream:
        for raw in csv.DictReader(stream):
            row: dict[str, object] = {}
            for key, text in raw.items():
                if text in ("true", "false"):
                    row[key] = text == "true"
                    continue
                try:
                    row[key] = float(text)
                except (TypeError, ValueError):
                    row[key] = text
            records.append(row)
    return records


def _resolve_split(spec: RunSpec, p: float) -> PowerSplit:
    if spec.phi == "opt":
        result = optimize_phi(spec.system, p, spec.csi_error, debug=spec.debug)
        return PowerSplit(result.phi_star)
    return PowerSplit(float(spec.phi))


def _fixed_phi(spec: RunSpec) -> float:
    if isinstance(spec.phi, str):
        raise ValueError(f"the {spec.command} command needs a numeric --phi")
    return float(spec.phi)


def _rate_rows(spec: RunSpec) -> tuple[list[str], list[list[object]]]:
    header = ["na", "ne", "snr_db", "phi", "sigma_tilde2", "c1", "c2", "c"]
    rows: list[list[object]] = []
    for snr in spec.snr_db:
        p = from_db(snr)
        split = _resolve_split(spec, p)
        err = spec.csi_error
        report = (
            secrecy_rate_imperfect(spec.system, p, split, err)
            if err is not None
            else secrecy_rate(spec.system, p, split)
        )
        rows.append(
            [spec.na, spec.ne, snr, split.phi, spec.sigma_tilde2,
             report.c1, report.c2, report.c]
        )
    return header, rows


def _opt_phi_rows(spec: RunSpec) -> tuple[list[str], list[list[object]]]:
    header = ["na", "ne", "snr_db", "sigma_tilde2", "phi_star", "z_star",
              "c_star", "iterations", "converged"]
    rows: list[list[object]] = []
    for snr in spec.snr_db:
        res = optimize_phi(spec.system, from_db(snr), spec.csi_error, debug=spec.debug)
        rows.append(
            [spec.na, spec.ne, snr, spec.sigma_tilde2, res.phi_star,
             res.z_star, res.c_star, res.iterations, res.converged]
        )
    return header, rows


def _opt_phi_adaptive_rows(spec: RunSpec) -> tuple[list[str], list[list[object]]]:
    if spec.sigma_tilde2 > 0.0:
        raise ValueError("adaptive optimization supports perfect CSI only")
    header = ["na", "ne", "snr_db", "quad_order", "c_adaptive"]
    rows: list[list[object]] = []
    for snr in spec.snr_db:
        c_adaptive = optimize_phi_adaptive(spec.system, from_db(snr), spec.quad_order)
        rows.append([spec.na, spec.ne, snr, spec.quad_order, c_adaptive])
    return header, rows


def _critical_snr_rows(spec: RunSpec) -> tuple[list[str], list[list[object]]]:
    phi = _fixed_phi(spec)
    header = ["na", "ne", "phi", "sigma_tilde2", "p_c_exact_db", "p_c_bound_db"]
    result = critical_snr(spec.system, PowerSplit(phi), spec.csi_error)
    rows = [[spec.na, spec.ne, phi, spec.sigma_tilde2,
             result.p_c_exact_db, result.p_c_bound_db]]
    return header, rows


def _table1_rows(spec: RunSpec) -> tuple[list[str], list[list[object]]]:
    phi = _fixed_phi(spec)
    split = PowerSplit(phi)
    header = ["na", "sigma_tilde2", "kind", "p_c_db"]
    rows: list[list[object]] = []
    for na in _TABLE1_NA:
        cfg = SystemConfig(na=na, ne=1)
        for s2 in _TABLE1_S2:
            err = CsiError(s2) if s2 > 0 else None
            result = critical_snr(cfg, split, err)
            rows.append([na, s2, "exact", "%.2f" % result.p_c_exact_db])
            rows.append([na, s2, "bound", "%.2f" % result.p_c_bound_db])
    return header, rows


def _validate_rows(spec: RunSpec) -> tuple[list[str], list[list[object]], bool]:
    header = ["quantity", "na", "ne", "snr_db", "phi", "sigma_tilde2",
              "samples", "seed", "closed", "mc", "stderr", "abs_dev", "ok"]
    snr = spec.snr_db[0]
    p = from_db(snr)
    split = _resolve_split(spec, p)
    rows: list[list[object]] = []
    all_ok = True

    def add(quantity: str, closed: float, mc_mean: float, stderr: float) -> None:
        nonlocal all_ok
        dev = abs(closed - mc_mean)
        ok = dev <= 3.0 * stderr
        all_ok = all_ok and ok
        rows.append([quantity, spec.na, spec.ne, snr, split.phi, spec.sigma_tilde2,
                     spec.samples, spec.seed, closed, mc_mean, stderr, dev, ok])

    report = secrecy_rate(spec.system, p, split)
    est1, est2 = mc_capacities(spec.system, p, split, spec.samples, spec.seed)
    add("c1", report.c1, est1.mean, est1.stderr)
    add("c2", report.c2, est2.mean, est2.stderr)
    err = spec.csi_error
    if err is not None:
        closed_imp = secrecy_rate_imperfect(spec.system, p, split, err)
        est = mc_secrecy_rate_imperfect(
            spec.system, p, split, err, spec.samples, spec.seed
        )
        add("rate_imperfect", closed_imp.c1 - closed_imp.c2, est.mean, est.stderr)
    return header, rows, all_ok


def run(spec: RunSpec) -> int:
    """Execute one validated request; returns the process exit code."""
    if spec.command == "rate" and len(spec.snr_db) > 1:
        raise ValueError("rate takes a single --snr-db; use sweep for ranges")
    if spec.command in ("rate", "sweep"):
        header, rows = _rate_rows(spec)
    elif spec.command == "opt-phi":
        header, rows = _opt_phi_rows(spec)
    elif spec.command == "opt-phi-adaptive":
        header, rows = _opt_phi_adaptive_rows(spec)
    elif spec.command == "critical-snr":
        header, rows = _critical_snr_rows(spec)
    elif spec.command == "table1":
        header, rows = _table1_rows(spec)
    else:
        header, rows, all_ok = _validate_rows(spec)
        _write_rows(spec.output, header, rows)
        return 0 if all_ok else 1
    _write_rows(spec.output, header, rows)
    return 0


def _load_config(path: str) -> dict[str, object]:
    defaults: dict[str, object] = {}
    with open(path) as stream:
        for lineno, raw in enumerate(stream, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            defaults[key] = _CONFIG_TYPES[key](value.strip())
    return defaults


def _build_parser(defaults: Optional[dict[str, object]] = None) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--na", type=int, default=4,
                        help="transmit antennas (default 4)")
    common.add_argument("--ne", type=int, default=1,
                        help="eavesdropper antennas, colluding (default 1)")
    common.add_argument("--snr-db", default="10",
                        help="SNR in dB: scalar or start:stop:step (default 10)")
    common.add_argument("--phi", default="0.5",
                        help="information-power fraction in (0,1), or 'opt' (default 0.5)")
    common.add_argument("--sigma-tilde2", dest="sigma_tilde2", type=float, default=0.0,
                        help="channel-estimation error variance in [0,1) (default 0)")
    common.add_argument("--samples", type=int, default=100_000,
                        help="Monte Carlo sample count (default 100000)")
    common.add_argument("--seed", type=int, default=0,
                        help="Monte Carlo seed (default 0)")
    common.add_argument("--output", default="-",
                        help="CSV destination path, '-' for stdout (default)")
    common.add_argument("--quad-order", dest="quad_order", type=int, default=64,
                        help="quadrature order for the adaptive optimizer (default 64)")
    common.add_argument("--config", default=None,
                        help="file of key=value defaults, overridden by flags")
    common.add_argument("--debug", action="store_true",
                        help="log optimizer grids")
    if defaults:
        common.set_defaults(**defaults)

    parser = argparse.ArgumentParser(
        prog="ansec",
        description="Secrecy rates for artificial-noise beamforming over Rayleigh fading.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    sub.add_parser("rate", parents=[common],
                   help="closed-form rate at one operating point")
    sub.add_parser("sweep", parents=[common],
                   help="closed-form rates over an SNR range")
    sub.add_parser("opt-phi", parents=[common],
                   help="best fixed power split per SNR")
    sub.add_parser("opt-phi-adaptive", parents=[common],
                   help="rate with a per-realization power split")
    sub.add_parser("critical-snr", parents=[common],
                   help="exact and bounded critical SNR at one split")
    sub.add_parser("table1", parents=[common],
                   help="reference critical-SNR table (na x error grid)")
    sub.add_parser("validate", parents=[common],
                   help="closed forms vs simulation; exit 1 on 3-sigma mismatch")
    return parser


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    return RunSpec(
        command=args.command,
        na=args.na,
        ne=args.ne,
        snr_db=parse_snr_db(str(args.snr_db)),
        phi=_parse_phi(str(args.phi)),
        sigma_tilde2=args.sigma_tilde2,
        samples=args.samples,
        seed=args.seed,
        output=args.output,
        quad_order=args.quad_order,
        debug=args.debug,
    )


def _bind_snr_values(argv: Sequence[str]) -> list[str]:
    # argparse reads a leading-minus range such as -10:40:1 as an option
    # name; attach it to --snr-db as --snr-db=-10:40:1 instead.
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--snr-db" and _NEGATIVE_NUMBER.match(arg):
            out[-1] = f"--snr-db={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the exit code instead of raising SystemExit."""
    argv = _bind_snr_values(sys.argv[1:] if argv is None else argv)
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    try:
        defaults = _load_config(known.config) if known.config else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser(defaults)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        spec = _spec_from_args(args)
        return run(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
