"""In-memory spans around transducersim's public functions, from outside the package.

``Tracer.install`` replaces each listed function with a wrapper in its
defining module and under every name another transducersim module bound
with ``from ... import`` (``cli`` binds ``write_trace``, ``run_link`` and
others directly). ``uninstall`` puts the originals back. Spans record
name, start, end, parent and the run id, and stay in memory; core
functions get call counters only, because a span costs more than one of
their microsecond calls.
"""

import importlib
import os
import sys
import time
from collections import Counter


# (module, function, counts(args, kwargs, result) -> {stat: value})
SPANNED = [
    ("cli", "main", None),
    ("deviceio", "load_device", None),
    ("deviceio", "write_trace",
     lambda a, k, r: {"rows": len(a[0]), "bytes": os.path.getsize(a[1])}),
    ("deviceio", "write_table",
     lambda a, k, r: {"cells": len(a[1]) * len(a[2]), "bytes": os.path.getsize(a[0])}),
    ("deviceio", "read_trace",
     lambda a, k, r: {"rows": len(r), "bytes": os.path.getsize(a[0])}),
    ("deviceio", "read_points", None),
    ("link", "run_link",
     lambda a, k, r: {"steps": len(a[0].bits) * a[0].samples_per_bit}),
    ("link", "eye_diagram", None),
    ("link", "link_metrics", None),
    ("link", "harmonic_spectrum", None),
    ("swap", "rabi_swap_sim", lambda a, k, r: {"points": len(a[2])}),
    ("sweep", "run_sweep", lambda a, k, r: {"rows": len(r)}),
    ("spectra", "s_oe_spectrum", lambda a, k, r: {"points": len(r)}),
    ("spectra", "thermal_spectrum", lambda a, k, r: {"points": len(r)}),
    ("spectra", "driven_spectrum", lambda a, k, r: {"points": len(r)}),
    ("spectra", "calibrate_coherent_phonons",
     lambda a, k, r: {"points": len(a[0])}),
]
FITTERS = ["fit_optical_dip", "fit_phase_detuning", "fit_linewidth_vs_photons",
           "fit_lorentzian_multi"]
SPANNED += [("fitting", name,
             lambda a, k, r: {"calls": 1, "iters": r.n_iter,
                              "converged": int(bool(r.converged))})
            for name in FITTERS]
COUNTED = [("core", name) for name in (
    "photon_number", "resolve_photon_number", "cooperativity",
    "backaction_rate", "total_mech_linewidth", "efficiencies",
    "total_efficiency", "thermal_occupation")]


class Tracer:
    """Spans of one run: [name, start, end, parent index, counts, run id]."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.calls = Counter()
        self._stack = []
        self._patches = []

    def _spanned(self, name, fn, counts):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, run_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                rec[4] = counts(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        wrappers = []
        for mod, fn, counts in SPANNED:
            orig = getattr(importlib.import_module(f"transducersim.{mod}"), fn)
            wrappers.append((orig, self._spanned(f"{mod}.{fn}", orig, counts)))
        for mod, fn in COUNTED:
            orig = getattr(importlib.import_module(f"transducersim.{mod}"), fn)
            wrappers.append((orig, self._counted(f"{mod}.{fn}", orig)))
        by_id = {id(orig): w for orig, w in wrappers}
        for name, module in list(sys.modules.items()):
            if not name.startswith("transducersim"):
                continue
            for attr, value in list(vars(module).items()):
                w = by_id.get(id(value))
                if w is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, w)

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.calls.clear()


def layer_metrics(spans, calls, wall):
    """Per-layer numbers of one traced pass of `wall` seconds.

    busy_s is a function's inclusive span time; <module>.self_s is the
    time its spans do not spend in child spans. The module self times
    plus trace.remainder_s (time in no span) add up to `wall`.
    """
    out = Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, counts, _) in enumerate(spans):
        dur = end - start
        out[f"{name}.busy_s"] += dur
        out[f"{name.split('.')[0]}.self_s"] += dur - child[i]
        for stat, value in (counts or {}).items():
            out[f"{name}.{stat}"] += value
        if parent < 0:
            out["trace.spanned_s"] += dur
    for name, n in calls.items():
        out[f"{name}.calls"] += n
    out["trace.remainder_s"] = wall - out.pop("trace.spanned_s", 0.0)
    fits = [f"fitting.{name}" for name in FITTERS]
    calls = sum(out[f"{f}.calls"] for f in fits)
    if calls:
        out["fitting.converged_ratio"] = sum(out[f"{f}.converged"] for f in fits) / calls
    return out
