"""Closed-form CLI runs against their committed output.

Each run's CSV and exit code are compared byte for byte with
tests/cli_golden.txt, so a change that moves any printed digit shows up
as a diff of that file. The runs cover every subcommand except the Monte
Carlo `validate`, with one and several eavesdroppers, with and without
channel-estimation error. To record the current output after an
intended numeric change, run

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import pathlib

import pytest

from ansec import cli

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.txt")

RUNS = [
    "rate --na 4 --ne 1 --snr-db -2.62 --phi 0.5",
    "rate --na 6 --ne 3 --snr-db 12 --phi 0.3 --sigma-tilde2 0.1",
    "rate --na 64 --ne 1 --snr-db 20 --phi opt",
    "rate --na 16 --ne 4 --snr-db 15 --phi opt --sigma-tilde2 0.05",
    "sweep --na 4 --ne 2 --snr-db 0:20:5 --phi 0.5",
    "sweep --na 2 --ne 1 --snr-db -10:10:4 --phi 0.7 --sigma-tilde2 0.2",
    "sweep --na 8 --ne 1 --snr-db 0:30:10 --phi opt",
    "sweep --na 12 --ne 5 --snr-db 5:25:10 --phi opt --sigma-tilde2 0.1",
    "opt-phi --na 2 --ne 1 --snr-db 30",
    "opt-phi --na 3 --ne 2 --snr-db 0:20:10",
    "opt-phi --na 4 --ne 1 --snr-db -5",
    "opt-phi --na 8 --ne 1 --snr-db 10 --sigma-tilde2 0.1",
    "opt-phi --na 24 --ne 12 --snr-db 15 --sigma-tilde2 0.2",
    "opt-phi --na 64 --ne 16 --snr-db 25",
    "opt-phi-adaptive --na 2 --ne 1 --snr-db 5",
    "opt-phi-adaptive --na 4 --ne 1 --snr-db 10",
    "opt-phi-adaptive --na 3 --ne 2 --snr-db 12.3",
    "opt-phi-adaptive --na 8 --ne 7 --snr-db 20",
    "opt-phi-adaptive --na 12 --ne 6 --snr-db 15",
    "opt-phi-adaptive --na 64 --ne 1 --snr-db 21.3 --quad-order 16",
    "critical-snr --na 2 --ne 1 --phi 0.5",
    "critical-snr --na 2 --ne 1 --phi 0.5 --sigma-tilde2 0.2",
    "critical-snr --na 2 --ne 1 --phi 0.5 --sigma-tilde2 0.5",
    "critical-snr --na 2 --ne 1 --phi 0.9999999",
    "critical-snr --na 8 --ne 4 --phi 0.3",
    "critical-snr --na 16 --ne 3 --phi 0.6 --sigma-tilde2 0.1",
    "critical-snr --na 64 --ne 1 --phi 0.9",
    "critical-snr --na 8 --ne 4 --phi 0.999999",
    "critical-snr --na 256 --ne 2 --phi 0.999",
    "critical-snr --na 64 --ne 16 --phi 0.9999",
    "critical-snr --na 8 --ne 7 --phi 0.999999",
    "table1 --phi 0.5",
    "table1 --phi 0.3",
]


def render(run: str) -> str:
    # One golden block: the command line, its CSV, and its exit code.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(run.split())
    return f"$ ansec {run}\n{out.getvalue()}exit {code}\n"


def golden_blocks() -> dict[str, str]:
    # Blocks are separated by one blank line; the CSV itself has none.
    blocks = GOLDEN.read_text().split("\n\n")
    return {b.split("\n", 1)[0][len("$ ansec "):]: b + "\n" for b in blocks if b}


@pytest.mark.parametrize("run", RUNS)
def test_output_matches_golden(run):
    assert render(run) == golden_blocks()[run]


def test_golden_file_lists_exactly_the_runs():
    assert list(golden_blocks()) == RUNS


if __name__ == "__main__":
    GOLDEN.write_text("".join(render(run) + "\n" for run in RUNS))
