"""Command-line front end.

Subcommands map one-to-one onto the library surface: point rates and
SNR sweeps, fixed and adaptive power-split optimization, critical-SNR
solving, the reference critical-SNR table, and a closed-form versus
simulation validation gate. Results are written as CSV (stdout by
default); SNR values cross the dB/linear boundary only here. Exit
codes: 0 success, 1 validation failure, 2 usage error, 3 numerical
failure (a series or solver that raised RuntimeError).
"""
from __future__ import annotations

import argparse
import csv
import logging
import math
import re
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Optional, Sequence, TextIO, Union

from .montecarlo import mc_capacities, mc_secrecy_rate_imperfect
from .optimize import (
    critical_snr,
    from_db,
    optimize_phi,
    optimize_phi_adaptive,
)
from .secrecy import CsiError, PowerSplit, SystemConfig, _is_int, secrecy_rate

_TABLE1_NA = (2, 4, 6, 8, 10)
_TABLE1_S2 = (0.0, 0.1, 0.2)
_NEGATIVE_NUMBER = re.compile(r"-[0-9.]")
_Rows = tuple[list[str], list[list[object]], bool]


def _option(default: object, parse: Callable[[str], object], text: str) -> object:
    # A RunSpec field that is also a flag and a --config key. argparse
    # applies parse to strings only, so the default is stored as written.
    return field(default=default, metadata={"parse": parse, "help": text})


@dataclass(frozen=True)
class RunSpec:
    """A fully parsed, validated request for one CLI run."""

    command: str
    na: int = _option(4, int, "transmit antennas")
    ne: int = _option(1, int, "eavesdropper antennas, colluding")
    snr_db: tuple[float, ...] = _option((10.0,), str, "SNR in dB: scalar or start:stop:step")
    phi: Union[float, str] = _option(0.5, str, "information-power fraction in (0,1), or 'opt'")
    sigma_tilde2: float = _option(0.0, float, "channel-estimation error variance in [0,1)")
    samples: int = _option(100_000, int, "Monte Carlo sample count")
    seed: int = _option(0, int, "Monte Carlo seed")
    output: str = _option("-", str, "CSV destination path, '-' for stdout")
    quad_order: int = _option(64, int, "quadrature order for the adaptive optimizer")

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        # --snr-db and --phi are parsed from their text here, so the flag
        # and a --config value fail with the same message.
        if isinstance(self.snr_db, str):
            object.__setattr__(self, "snr_db", parse_snr_db(self.snr_db))
        if isinstance(self.phi, str) and self.phi != "opt":
            try:
                object.__setattr__(self, "phi", float(self.phi))
            except ValueError as exc:
                raise ValueError(f"--phi must be a number or 'opt', got {self.phi!r}") from exc
        # The library types validate the fields they model and raise
        # ValueError, which the CLI reports as a usage error.
        SystemConfig(self.na, self.ne)
        CsiError(self.sigma_tilde2)
        if len(self.snr_db) == 0:
            raise ValueError("--snr-db produced an empty range")
        if any(not math.isfinite(s) for s in self.snr_db):
            raise ValueError("--snr-db values must be finite")
        if self.phi != "opt":
            PowerSplit(self.phi)
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


_OPTIONS = tuple(f for f in fields(RunSpec) if f.name != "command")
# Keys a --config file may set. Values stay strings: argparse converts a
# string default through its flag's type=, so a bad value is reported
# against the flag it would have set.
_CONFIG_KEYS = frozenset(f.name for f in _OPTIONS)


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
        result = optimize_phi(spec.system, p, spec.csi_error)
        return PowerSplit(result.phi_star)
    return PowerSplit(float(spec.phi))


def _fixed_phi(spec: RunSpec) -> float:
    if isinstance(spec.phi, str):
        raise ValueError(f"the {spec.command} command needs a numeric --phi")
    return float(spec.phi)


def _sweep_rows(spec: RunSpec) -> _Rows:
    header = ["na", "ne", "snr_db", "phi", "sigma_tilde2", "c1", "c2", "c"]
    rows: list[list[object]] = []
    for snr in spec.snr_db:
        p = from_db(snr)
        split = _resolve_split(spec, p)
        report = secrecy_rate(spec.system, p, split, spec.csi_error)
        rows.append(
            [spec.na, spec.ne, snr, split.phi, spec.sigma_tilde2,
             report.c1, report.c2, report.c]
        )
    return header, rows, True


def _rate_rows(spec: RunSpec) -> _Rows:
    if len(spec.snr_db) > 1:
        raise ValueError("rate takes a single --snr-db; use sweep for ranges")
    return _sweep_rows(spec)


def _opt_phi_rows(spec: RunSpec) -> _Rows:
    header = ["na", "ne", "snr_db", "sigma_tilde2", "phi_star", "z_star",
              "c_star", "iterations", "converged"]
    rows: list[list[object]] = []
    for snr in spec.snr_db:
        res = optimize_phi(spec.system, from_db(snr), spec.csi_error)
        rows.append(
            [spec.na, spec.ne, snr, spec.sigma_tilde2, res.phi_star,
             res.z_star, res.c_star, res.iterations, res.converged]
        )
    return header, rows, True


def _opt_phi_adaptive_rows(spec: RunSpec) -> _Rows:
    if spec.sigma_tilde2 > 0.0:
        raise ValueError("adaptive optimization supports perfect CSI only")
    header = ["na", "ne", "snr_db", "quad_order", "c_adaptive"]
    rows: list[list[object]] = []
    for snr in spec.snr_db:
        c_adaptive = optimize_phi_adaptive(spec.system, from_db(snr), spec.quad_order)
        rows.append([spec.na, spec.ne, snr, spec.quad_order, c_adaptive])
    return header, rows, True


def _critical_snr_rows(spec: RunSpec) -> _Rows:
    phi = _fixed_phi(spec)
    header = ["na", "ne", "phi", "sigma_tilde2", "p_c_exact_db", "p_c_bound_db"]
    result = critical_snr(spec.system, PowerSplit(phi), spec.csi_error)
    rows = [[spec.na, spec.ne, phi, spec.sigma_tilde2,
             result.p_c_exact_db, result.p_c_bound_db]]
    return header, rows, True


def _table1_rows(spec: RunSpec) -> _Rows:
    phi = _fixed_phi(spec)
    split = PowerSplit(phi)
    header = ["na", "sigma_tilde2", "kind", "p_c_db"]
    rows: list[list[object]] = []
    for na in _TABLE1_NA:
        cfg = SystemConfig(na=na, ne=1)
        for s2 in _TABLE1_S2:
            result = critical_snr(cfg, split, CsiError(s2))
            rows.append([na, s2, "exact", "%.2f" % result.p_c_exact_db])
            rows.append([na, s2, "bound", "%.2f" % result.p_c_bound_db])
    return header, rows, True


def _validate_rows(spec: RunSpec) -> _Rows:
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
    if spec.sigma_tilde2 > 0.0:
        closed_imp = secrecy_rate(spec.system, p, split, spec.csi_error)
        est = mc_secrecy_rate_imperfect(
            spec.system, p, split, spec.csi_error, spec.samples, spec.seed
        )
        add("rate_imperfect", closed_imp.c1 - closed_imp.c2, est.mean, est.stderr)
    return header, rows, all_ok


# Each subcommand: its help line, and the function that computes its CSV
# header, its rows, and whether the run passed (only validate can fail).
_COMMANDS: dict[str, tuple[str, Callable[[RunSpec], _Rows]]] = {
    "rate": ("closed-form rate at one operating point", _rate_rows),
    "sweep": ("closed-form rates over an SNR range", _sweep_rows),
    "opt-phi": ("best fixed power split per SNR", _opt_phi_rows),
    "opt-phi-adaptive": ("rate with a per-realization power split", _opt_phi_adaptive_rows),
    "critical-snr": ("exact and bounded critical SNR at one split", _critical_snr_rows),
    "table1": ("reference critical-SNR table (na x error grid)", _table1_rows),
    "validate": ("closed forms vs simulation; exit 1 on 3-sigma mismatch", _validate_rows),
}


def run(spec: RunSpec) -> int:
    """Execute one validated request; returns the process exit code."""
    header, rows, ok = _COMMANDS[spec.command][1](spec)
    _write_rows(spec.output, header, rows)
    return 0 if ok else 1


def _load_config(path: str) -> dict[str, str]:
    defaults: dict[str, str] = {}
    with open(path) as stream:
        for lineno, raw in enumerate(stream, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            defaults[key] = value.strip()
    return defaults


def _build_parser(config: dict[str, str]) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for option in _OPTIONS:
        shown = option.default[0] if isinstance(option.default, tuple) else option.default
        common.add_argument(
            "--" + option.name.replace("_", "-"),
            type=option.metadata["parse"],
            default=config.get(option.name, option.default),
            help=f"{option.metadata['help']} (default {_fmt(shown)})",
        )
    common.add_argument("--config",
                        help="file of key=value defaults, overridden by flags")
    common.add_argument("--debug", action="store_true",
                        help="log each optimizer grid to stderr")

    parser = argparse.ArgumentParser(
        prog="ansec",
        description="Secrecy rates for artificial-noise beamforming over Rayleigh fading.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (text, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    return RunSpec(**{f.name: getattr(args, f.name) for f in fields(RunSpec)})


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
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    try:
        config = _load_config(known.config) if known.config else {}
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser(config)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    # --debug shows the "ansec" loggers' DEBUG records on stderr for this
    # call only: main also runs in-process, so nothing may outlive it.
    log = logging.getLogger("ansec")
    handler = logging.StreamHandler(sys.stderr)
    level = log.level
    if args.debug:
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        return run(_spec_from_args(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
