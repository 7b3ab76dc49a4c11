"""Span tracing for the benchmark's traced run.

`install` wraps the public functions named in TARGETS and patches each
wrapper into every `ncho.*` namespace that holds the original (for example
`spectrum.rho_eval`), so calls made from inside other layers, the quadrature
integrand included, are recorded too. Each call becomes a span with its name,
start, end, parent span and operation id, kept in flat arrays in memory and
written out once the round ends. Untraced runs install nothing.

A few wrappers also count what later caching or closed-form work relies on:
how often a phase is needed at an already-seen (scenario, t), how often the
exact Laguerre sum is asked for an argument tuple it has already seen, how
many phase rows the closed form served, and how many integrand evaluations
each adaptive quadrature makes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

TARGETS = (
    ("cli", ("main",)),
    ("config", ("parse_scenario_file", "build_scenario")),
    ("ermakov", ("rho_eval", "coefficient_a", "coefficient_b", "ep_residual")),
    ("hamiltonian", ("c_complex", "nc_parameters", "reality_horizon_time")),
    ("energy", ("energy_expectation",)),
    ("invariant", ("invariant_coefficients", "invariant_ode_residuals")),
    ("spectrum", (
        "phase_closed_form", "eigenfunction", "hamiltonian_eigenfunction",
        "phase_quadrature", "matrix_element_x_pow", "matrix_element_y_pow",
        "matrix_element_oracle", "overlap",
    )),
    ("specfun", (
        "integrate_adaptive_full", "laguerre_weighted_integral_exact",
        "gauss_2f1", "laguerre",
    )),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS for fn in fns)
COUNTERS = (
    "phase_calls", "phase_repeats", "exact_calls", "exact_repeats",
    "closed_form_rows", "closed_form_calls", "quad_calls", "quad_evals",
)


def _needs_phase_label(read, a, k) -> bool:
    return read(a, k, "s").m != 0


def _needs_phase_offdiag(read, a, k) -> bool:
    return read(a, k, "m_prime") != read(a, k, "m")


def _needs_phase_offdiag_dynamic(read, a, k) -> bool:
    return read(a, k, "m_prime") != read(a, k, "m") and not read(a, k, "invariant_basis")


# Calls whose result carries the e^{i Theta} factor at (scenario, t), and how
# to tell from the arguments that it is needed (m != 0, or m' != m).
PHASE_USERS = {
    "spectrum.phase_closed_form": _needs_phase_label,
    "spectrum.phase_quadrature": _needs_phase_label,
    "spectrum.hamiltonian_eigenfunction": _needs_phase_label,
    "spectrum.matrix_element_x_pow": _needs_phase_offdiag_dynamic,
    "spectrum.matrix_element_y_pow": _needs_phase_offdiag_dynamic,
    "spectrum.matrix_element_oracle": _needs_phase_offdiag,
}


class Recorder:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.names = SPAN_NAMES
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self._seen_phase: set = set()
        self._seen_exact: set = set()

    def call(self, name_id: int, fn, args, kwargs):
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def seen(self, which: str, key) -> None:
        seen = self._seen_phase if which == "phase" else self._seen_exact
        self.counters[which + "_calls"] += 1
        if key in seen:
            self.counters[which + "_repeats"] += 1
        else:
            seen.add(key)


def _reader(fn):
    """read(args, kwargs, name): the value bound to parameter `name` in a call."""
    params = inspect.signature(fn).parameters
    pos = {name: i for i, name in enumerate(params)}
    defaults = {name: p.default for name, p in params.items()}

    def read(a, k, name):
        i = pos[name]
        return a[i] if i < len(a) else k.get(name, defaults[name])

    return read


def _wrapper(rec: Recorder, name_id: int, name: str, fn):
    call = rec.call
    if name in PHASE_USERS:
        read = _reader(fn)
        needs = PHASE_USERS[name]
        closed = name == "spectrum.phase_closed_form"

        def wrapper(*a, **k):
            if needs(read, a, k):
                rec.seen("phase", (read(a, k, "scenario"), float(read(a, k, "t"))))
            result = call(name_id, fn, a, k)
            if closed:
                rec.counters["closed_form_calls"] += 1
                rec.counters["closed_form_rows"] += result.method.value == "ClosedForm"
            return result
    elif name == "specfun.laguerre_weighted_integral_exact":
        def wrapper(*a, **k):
            rec.seen("exact", (a, tuple(sorted(k.items()))))
            return call(name_id, fn, a, k)
    elif name == "specfun.integrate_adaptive_full":
        counters = rec.counters

        def wrapper(f, *a, **k):
            def counted(x):
                counters["quad_evals"] += 1
                return f(x)

            counters["quad_calls"] += 1
            return call(name_id, fn, (counted,) + a, k)
    else:
        def wrapper(*a, **k):
            return call(name_id, fn, a, k)
    return functools.wraps(fn)(wrapper)


def install(rec: Recorder) -> list[tuple]:
    """Wrap every target and patch it into each `ncho.*` module that holds it.

    A target the package no longer defines is listed in `rec.missing`.
    Returns the (module, attribute, original) triples it replaced.
    """
    replace = {}
    for name_id, name in enumerate(SPAN_NAMES):
        mod, fn_name = name.split(".")
        fn = getattr(importlib.import_module(f"ncho.{mod}"), fn_name, None)
        if fn is None:
            rec.missing.append(name)
            continue
        replace[id(fn)] = (fn, _wrapper(rec, name_id, name, fn))
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "ncho" and not mod_name.startswith("ncho."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    return patched


def summarize(rec: Recorder) -> dict:
    """Per span name: [calls, total self seconds]; plus the counters.

    A span's self time is its duration minus the durations of its direct
    children, which lie inside it.
    """
    import numpy as np

    start = np.frombuffer(rec.start, dtype=np.float64)
    dur = np.frombuffer(rec.end, dtype=np.float64) - start
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    ids = np.frombuffer(rec.name_id, dtype=np.int32)
    inner = parent >= 0
    child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
    own = dur - child
    calls = np.bincount(ids, minlength=len(rec.names))
    self_s = np.bincount(ids, weights=own, minlength=len(rec.names))
    return {
        "spans": {n: [int(calls[i]), float(self_s[i])] for i, n in enumerate(rec.names)},
        "counters": dict(rec.counters),
        "missing": list(rec.missing),
    }


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several processes or rounds."""
    spans = {n: [0, 0.0] for n in SPAN_NAMES}
    counters = dict.fromkeys(COUNTERS, 0)
    missing: set = set()
    for s in summaries:
        for n, (calls, self_s) in s["spans"].items():
            spans[n][0] += calls
            spans[n][1] += self_s
        for c, v in s["counters"].items():
            counters[c] += v
        missing.update(s["missing"])
    return {"spans": spans, "counters": counters, "missing": sorted(missing)}


def dump(rec: Recorder, path) -> None:
    """Write the raw spans (one row per call) as a NumPy .npz archive."""
    import numpy as np

    np.savez(
        path,
        names=np.array(rec.names),
        name_id=np.frombuffer(rec.name_id, dtype=np.int32),
        parent=np.frombuffer(rec.parent, dtype=np.int32),
        op=np.frombuffer(rec.op, dtype=np.int32),
        start=np.frombuffer(rec.start, dtype=np.float64),
        end=np.frombuffer(rec.end, dtype=np.float64),
    )
