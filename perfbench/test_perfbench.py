"""Checks of the benchmark itself: seeding, tracing hygiene, the gate."""
import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ansec
from ansec import secrecy
from perfbench import run, tracer, workloads
from perfbench.workloads import Item

HERE = Path(__file__).resolve().parent


def first_rounds(workload, seed, n=3):
    return list(itertools.islice(workloads.rounds(workload, seed), n))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_items_other_seed_other_items(workload):
    assert first_rounds(workload, 11) == first_rounds(workload, 11)
    assert first_rounds(workload, 11) != first_rounds(workload, 12)


def test_wrappers_record_every_namespace_and_restore_originals(tmp_path):
    before = [(m, dict(vars(m))) for m in tracer.ansec_modules()]
    original = ansec.optimize.optimize_phi
    t = tracer.Tracer()
    t.install()
    try:
        for namespace in (ansec, ansec.cli, ansec.optimize):
            assert namespace.optimize_phi is not original
            assert namespace.optimize_phi.__wrapped__ is original
        item = Item("opt-phi", 4, 1, ("opt-phi", "--na", "4", "--ne", "1", "--snr-db=10"))
        t.on = True
        workloads.execute(item, str(tmp_path / "out.csv"))
        t.on = False
    finally:
        t.remove()
    for module, attrs in before:
        for name, value in attrs.items():
            assert getattr(module, name) is value, f"{module.__name__}.{name}"
    stats = t.aggregate()
    assert stats["cli.main.calls"] == 1
    assert stats["optimize.optimize_phi.calls"] == 1
    assert stats["optimize.optimize_phi.evals_per_call"] > 65
    assert stats["trace.top_span_s"] == pytest.approx(stats["cli.main.busy_s"])
    for name in tracer.NAMES:
        assert 0.0 <= stats[f"{name}.self_s"] <= stats[f"{name}.busy_s"] + 1e-12


def test_planted_wrong_value_is_caught_and_counted(tmp_path, monkeypatch):
    items = [
        Item("opt-phi", 4, 1, ("opt-phi", "--na", "4", "--ne", "1", "--snr-db=10"),
             (("points", 1.0),)),
        Item("critical-snr", 4, 1, ("critical-snr", "--na", "4", "--ne", "1", "--phi", "0.5"),
             (("points", 1.0),)),
    ]
    csv_path = str(tmp_path / "out.csv")
    clean = run.measure([items], 0.0, csv_path)
    assert clean.failed == 0

    original = secrecy.capacity_eve
    honest_execute = workloads.execute

    def off_by_a_little(cfg, split):
        return original(cfg, split) + 1e-3

    def faulty_execute(item, path):
        undo = tracer.rebind(original, off_by_a_little)
        try:
            return honest_execute(item, path)
        finally:
            tracer.restore(undo)

    monkeypatch.setattr(workloads, "execute", faulty_execute)
    planted = run.measure([items], 0.0, csv_path)
    assert secrecy.capacity_eve is original
    assert [v.ok for v in planted.verdicts] == [False, True]
    assert planted.failed / len(planted.times) == 0.5


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "design-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_draw_counter_wraps_only_the_named_functions(tmp_path):
    original_eve = ansec.secrecy.capacity_eve
    counter = tracer.Tracer()
    counter.on = True
    counter.install(only=run.MC_DRAWING)
    try:
        assert ansec.secrecy.capacity_eve is original_eve
        item = Item("validate", 4, 3, ("validate", "--na", "4", "--ne", "3", "--snr-db=10",
                                       "--samples", "4096", "--sigma-tilde2", "0.1"))
        workloads.execute(item, str(tmp_path / "out.csv"))
    finally:
        counter.remove()
    assert counter.mc_kept == 4096 and counter.mc_discarded >= 0
    assert counter.imperfect_draws == 4096
    assert counter.aggregate()["montecarlo.mc_capacities.calls"] == 1

