"""Outside-in tracing of the ansec layers.

Timing wrappers replace each traced public function in every `ansec.*`
namespace that holds it: `cli` binds `optimize_phi` by name and
`optimize` binds `capacity_eve` and `capacity_bob` by name, so patching
only the defining module would miss those calls. Each call records one
span (function, parent span, start, end) in compact arrays kept in
memory; `aggregate` turns the spans into per-layer metrics and
`save` writes them out. `remove` puts every original object back.
"""
from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter
from typing import Callable, Optional

import numpy as np

# (layer, function) pairs in the order metrics are reported. A function
# that a later version of the package no longer defines reports zeros.
TRACED = (
    ("specfun", "scaled_expint_sum"),
    ("specfun", "scaled_expint_en"),
    ("specfun", "hyp2f1_1b_c"),
    ("secrecy", "capacity_bob"),
    ("secrecy", "capacity_bob_imperfect"),
    ("secrecy", "capacity_eve"),
    ("secrecy", "ccdf_sir"),
    ("optimize", "optimize_phi"),
    ("optimize", "optimize_phi_adaptive"),
    ("optimize", "critical_snr"),
    ("montecarlo", "mc_capacities"),
    ("montecarlo", "mc_secrecy_rate_imperfect"),
    ("montecarlo", "sample_channel"),
    ("montecarlo", "sir_mmse"),
    ("cli", "main"),
)
NAMES = tuple(f"{layer}.{fn}" for layer, fn in TRACED)


def ansec_modules() -> list:
    """Every imported module of the package, the package itself first."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ansec" or name.startswith("ansec."))]


def rebind(original: Callable, replacement: Callable) -> list[tuple[object, str, Callable]]:
    """Point every ansec attribute that is `original` at `replacement`.

    Returns the (module, attribute, original) triples needed to undo it.
    """
    undo = []
    for module in ansec_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: list[tuple[object, str, Callable]]) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def _first(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span recorder for the functions in TRACED; records only while `on`."""

    def __init__(self) -> None:
        self.on = False
        self._fid = array("i")
        self._parent = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, Callable]] = []
        self.eve_args: set[tuple] = set()
        self.opt_iterations = 0
        self.mc_kept = 0
        self.mc_discarded = 0
        self.imperfect_draws = 0

    # Observers see the arguments and result of a traced call after its
    # span has ended; they feed the ratios that spans alone cannot give.
    def _observe_eve(self, args, kwargs, result) -> None:
        cfg, split = _first(args, kwargs, 0, "cfg"), _first(args, kwargs, 1, "split")
        self.eve_args.add((cfg.na, cfg.ne, split.z))

    def _observe_opt(self, args, kwargs, result) -> None:
        self.opt_iterations += result.iterations

    def _observe_mc(self, args, kwargs, result) -> None:
        self.mc_kept += result[0].n_samples
        self.mc_discarded += result[0].n_discarded

    def _observe_imperfect(self, args, kwargs, result) -> None:
        self.imperfect_draws += result.n_samples

    def _wrap(self, fid: int, fn: Callable, observe: Optional[Callable]) -> Callable:
        fids, parents, starts, ends, stack = (
            self._fid, self._parent, self._t0, self._t1, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self, only: Optional[tuple[str, ...]] = None) -> None:
        """Wrap every traced function (or those named in `only`) wherever
        the package binds it."""
        import ansec

        observers = {
            "capacity_eve": self._observe_eve,
            "optimize_phi": self._observe_opt,
            "mc_capacities": self._observe_mc,
            "mc_secrecy_rate_imperfect": self._observe_imperfect,
        }
        for fid, (layer, name) in enumerate(TRACED):
            module = getattr(ansec, layer, None)
            original = getattr(module, name, None)
            if original is None or (only is not None and name not in only):
                continue
            self._undo += rebind(original, self._wrap(fid, original, observers.get(name)))

    def remove(self) -> None:
        """Put every original function back."""
        restore(self._undo)
        self._undo = []

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self._fid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "t0": np.frombuffer(self._t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self._t1, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.spans())

    def aggregate(self) -> dict[str, float]:
        """Per-function calls, inclusive and self seconds, plus ratios.

        A span's self time is its duration minus the durations of the
        spans whose nearest traced ancestor it is.
        """
        s = self.spans()
        n = len(NAMES)
        dur = s["t1"] - s["t0"]
        nested = s["parent"] >= 0
        child = np.bincount(s["parent"][nested], weights=dur[nested], minlength=dur.size)
        calls = np.bincount(s["fid"], minlength=n)
        busy = np.bincount(s["fid"], weights=dur, minlength=n)
        self_s = np.bincount(s["fid"], weights=dur - child, minlength=n)
        out: dict[str, float] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.busy_s"] = float(busy[i])
            out[f"{name}.self_s"] = float(self_s[i])

        def per(count: float, base: float) -> float:
            return count / base if base else 0.0

        fid = {name: i for i, name in enumerate(NAMES)}
        parent_fid = np.where(nested, s["fid"][np.maximum(s["parent"], 0)], -1)
        eve = s["fid"] == fid["secrecy.capacity_eve"]

        def eve_calls_under(name: str) -> float:
            return float(np.count_nonzero(eve & (parent_fid == fid[name])))

        opt, adaptive = "optimize.optimize_phi", "optimize.optimize_phi_adaptive"
        mc, imp = "montecarlo.mc_capacities", "montecarlo.mc_secrecy_rate_imperfect"
        mc_draws = self.mc_kept + self.mc_discarded
        out["secrecy.capacity_eve.unique_ratio"] = per(
            len(self.eve_args), out["secrecy.capacity_eve.calls"])
        out[f"{opt}.iterations"] = per(self.opt_iterations, out[f"{opt}.calls"])
        out[f"{opt}.evals_per_call"] = per(eve_calls_under(opt), out[f"{opt}.calls"])
        out[f"{adaptive}.eve_calls_per_call"] = per(
            eve_calls_under(adaptive), out[f"{adaptive}.calls"])
        out[f"{mc}.samples_per_s"] = per(mc_draws, out[f"{mc}.busy_s"])
        out[f"{mc}.kept_ratio"] = per(self.mc_kept, mc_draws)
        out[f"{imp}.samples_per_s"] = per(self.imperfect_draws, out[f"{imp}.busy_s"])
        out["trace.top_span_s"] = float(dur[~nested].sum())
        return out
