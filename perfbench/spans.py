"""In-memory span tracing of quasilattice's public functions.

The tracer rebinds each listed function, in every ``quasilattice.*``
module that holds a reference to it, to a wrapper that records a span:
its name, start, end, parent span, operation id and thread.  Spans stay
in memory; ``self_times`` turns them into per-layer self time after the
run.  Nothing here touches the package on disk, and ``uninstall``
restores every rebound name.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, function, layer metric prefix).  The prefix is the metric
# name stem; several functions may share one (the model layer).
TARGETS = [
    ("quasilattice.cli", "main", "cli"),
    ("quasilattice.model", "coupling_weights", "model"),
    ("quasilattice.model", "deformation_factor", "model"),
    ("quasilattice.polariton", "diagonalize_sector", "polariton.diagonalize_sector"),
    ("quasilattice.polariton", "first_excited_transition", "polariton.first_excited_transition"),
    ("quasilattice.polariton", "raising_element", "polariton.raising_element"),
    ("quasilattice.polariton", "closed_form_coefficients", "polariton.closed_form_coefficients"),
    ("quasilattice.radiation", "chi", "radiation.chi"),
    ("quasilattice.radiation", "s_factor", "radiation.s_factor"),
    ("quasilattice.radiation", "decay_rate", "radiation.decay_rate"),
    ("quasilattice.radiation", "pv_integral_check", "radiation.pv_integral_check"),
    ("quasilattice.dynamics", "integrate_amplitudes", "dynamics.integrate_amplitudes"),
    ("quasilattice.dynamics", "fit_decay", "dynamics.fit_decay"),
    ("quasilattice.dynamics", "normalized_bath", "dynamics.normalized_bath"),
    ("quasilattice.oracle", "build_operators", "oracle.build_operators"),
    ("quasilattice.oracle", "exact_sector_spectrum", "oracle.exact_sector_spectrum"),
    ("quasilattice.oracle", "verify_commutators", "oracle.verify_commutators"),
    ("quasilattice.validation", "check_deformation_identity", "validation.check_deformation_identity"),
    ("quasilattice.validation", "check_commutators", "validation.check_commutators"),
    ("quasilattice.validation", "check_closed_form", "validation.check_closed_form"),
    ("quasilattice.validation", "check_chi_identity", "validation.check_chi_identity"),
    ("quasilattice.validation", "check_pv", "validation.check_pv"),
    ("quasilattice.validation", "check_exact_limit", "validation.check_exact_limit"),
]

ROOT = "bench"  # the operation itself: benchmark glue around the entry point


def _span_name(module_name: str, attr: str) -> str:
    return f"{module_name.split('.', 1)[1]}.{attr}"


_LAYER = {_span_name(m, a): layer for m, a, layer in TARGETS}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _nbytes(obj) -> int:
    return sum(getattr(v, "nbytes", 0) for v in vars(obj).values())


# Per-span counters, computed from the arguments and the result.
_INFO = {
    "radiation.chi": lambda a, k, r: {"k_points": np.size(_arg(a, k, 3, "k"))},
    "radiation.s_factor": lambda a, k, r: {"k_points": np.size(_arg(a, k, 2, "k"))},
    "polariton.diagonalize_sector": lambda a, k, r: {
        "key": (_arg(a, k, 0, "lattice"), _arg(a, k, 1, "cavity"), _arg(a, k, 2, "two_u"))
    },
    "dynamics.integrate_amplitudes": lambda a, k, r: {
        "steps": r.times.size - 1,
        "modes": _arg(a, k, 2, "bath").n_modes,
        "result_bytes": _nbytes(r),
    },
    "oracle.build_operators": lambda a, k, r: {
        "dimension": r.dimension,
        "result_bytes": _nbytes(r),
    },
}


class Span:
    __slots__ = ("name", "start", "end", "seq_start", "seq_end", "parent", "op", "thread", "info")

    def __init__(self, name, start, seq, parent, op, thread):
        self.name = name
        self.start = start
        self.seq_start = seq
        self.end = None
        self.seq_end = None
        self.parent = parent
        self.op = op
        self.thread = thread
        self.info = None


class Tracer:
    """Records spans while an operation is open; passes calls straight
    through otherwise, so output checks run between operations are not
    traced."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._op = None
        self._op_thread = None
        self._op_stack: list[Span] = []
        self._local = threading.local()
        self._seq = itertools.count()
        self._rebound: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._op_thread:
            return self._op_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A worker-pool thread inherits no span: attribute it to the
            # span the operation's own thread is blocked in.
            parent = self._op_stack[-1] if self._op_stack else None
        span = Span(name, time.perf_counter(), next(self._seq), parent, self._op,
                    threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.seq_end = next(self._seq)
        self._stack().pop()

    def begin_op(self, op_id) -> Span:
        self._op = op_id
        self._op_thread = threading.get_ident()
        return self.open(ROOT)

    def end_op(self, root: Span) -> None:
        self.close(root)
        self._op = None

    # -- wrappers ------------------------------------------------------
    def _wrap(self, fn, name):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded quasilattice module that
        refers to it (``from x import f`` copies and ``__init__``
        re-exports included)."""
        for module_name, attr, _ in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, _span_name(module_name, attr))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "quasilattice" or mod_name.startswith("quasilattice.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._rebound.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._rebound):
            setattr(mod, key, original)
        self._rebound.clear()


def layer_of(span_name: str) -> str:
    return _LAYER.get(span_name, span_name)


def self_times(spans: list[Span]) -> dict[Span, float]:
    """Self time of every span: its duration minus the union of its
    child spans.  Where spans of several threads run at once (the CLI's
    worker pool), each elementary interval is shared equally among the
    innermost active spans, so concurrent work is counted once and the
    self times of one operation sum to its duration."""
    events = []
    for s in spans:
        events.append((s.start, s.seq_start, 1, s))
        events.append((s.end, s.seq_end, 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    stacks: dict[int, list[Span]] = defaultdict(list)
    out: dict[Span, float] = defaultdict(float)
    last_t = None
    for t, _, is_start, span in events:
        if last_t is not None and t > last_t:
            tops = [st[-1] for st in stacks.values() if st]
            owners = [s for s in tops if not any(_is_ancestor(s, o) for o in tops if o is not s)]
            if owners:
                share = (t - last_t) / len(owners)
                for s in owners:
                    out[s] += share
        last_t = t
        if is_start:
            stacks[span.thread].append(span)
        else:
            stacks[span.thread].remove(span)
    return out


def _is_ancestor(a: Span, b: Span) -> bool:
    p = b.parent
    while p is not None:
        if p is a:
            return True
        p = p.parent
    return False


def layer_figures(tracer: Tracer, cycles: list[list]) -> tuple[dict, dict]:
    """Per-layer figures from the spans of the given cycles (each a list
    of operation ids), averaged per cycle, and the smallest number of
    calls of each traced function in any one cycle.

    Figures are ``<layer>.self_s``, ``<function>.calls``, the counters of
    ``_INFO`` (summed, except ``dimension`` and ``modes``, which take the
    largest value) and ``<function>.distinct_ratio`` for functions whose
    counter records a ``key``."""
    by_op: dict = defaultdict(list)
    for span in tracer.spans:
        by_op[span.op].append(span)
    per_cycle, calls_per_cycle = [], []
    for op_ids in cycles:
        fig: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        keys: dict[str, set] = defaultdict(set)
        for op_id in op_ids:
            spans = by_op[op_id]
            for span, self_s in self_times(spans).items():
                fig[f"{layer_of(span.name)}.self_s"] += self_s
            for span in spans:
                calls[span.name] += 1
                for key, value in (span.info or {}).items():
                    name = f"{span.name}.{key}"
                    if key == "key":
                        keys[span.name].add(value)
                    elif key in ("dimension", "modes"):
                        fig[name] = max(fig[name], value)
                    else:
                        fig[name] += value
        for name, n in calls.items():
            fig[f"{name}.calls"] = n
        for name, distinct in keys.items():
            fig[f"{name}.distinct_ratio"] = len(distinct) / calls[name]
        per_cycle.append(fig)
        calls_per_cycle.append(calls)
    mean = {k: sum(f.get(k, 0.0) for f in per_cycle) / len(per_cycle)
            for k in set().union(*per_cycle)}
    fewest = {k: min(c.get(k, 0) for c in calls_per_cycle) for k in set().union(*calls_per_cycle)}
    return mean, fewest
