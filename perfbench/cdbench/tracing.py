"""Spans around the calls into corrdecay's public functions, installed from outside.

The tracer rebinds each traced function in every corrdecay module namespace
that holds it (``build_coupling_matrices`` is also bound in ``corrdecay.sweep``
and ``corrdecay.cli``; ``exactdiag`` looks ``sector_matvec`` up through its own
globals at call time), records one span per call in memory, and restores the
original bindings when the ``installed()`` block exits. Nothing under ``src/``
knows about it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

_MARK = "__cdbench_traced__"


def _arg(fn, name):
    """Extractor for one named argument of ``fn``, however it was passed."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


# Each entry: (module, attribute, bucket, counters). `bucket` names the self-time
# metric the span's time goes to; `counters(fn)` returns a function
# (args, kwargs, result) -> {counter: amount}. Counts that are derived from
# sizes rather than measured (pairs, bytes_computed, eig_n3, points) are
# computed from the arguments or the result.
def _coupling_counts(fn):
    def count(args, kwargs, result):
        n = result.n
        return {"coupling.pairs": n * (n - 1) // 2, "coupling.bytes_computed": 16 * n * n}
    return count


def _io_counts(fn):
    path = _arg(fn, "path")

    def count(args, kwargs, result):
        return {"coupling.io_bytes": os.path.getsize(path(args, kwargs))}
    return count


def _eig_counts(fn):
    mats = _arg(fn, "mats")

    def count(args, kwargs, result):
        return {"spectral.eig_calls": 1, "spectral.eig_n3": mats(args, kwargs).n ** 3}
    return count


def _grid_counts(fn):
    dim, n_axis = _arg(fn, "dimension"), _arg(fn, "n_per_axis")

    def count(args, kwargs, result):
        return {"kspace.points": n_axis(args, kwargs) ** dim(args, kwargs)}
    return count


def _lowrank_counts(fn):
    def count(args, kwargs, result):
        return {"sdp.lowrank_calls": 1, "sdp.iterations": result.iterations,
                "sdp.converged": int(result.converged),
                "sdp.escape_verified": int(result.rank_escape_verified is True)}
    return count


def _const(**counts):
    def make(fn):
        return lambda args, kwargs, result: counts
    return make


TARGETS = [
    ("corrdecay.lattice", "generate_lattice", "lattice.busy_s", _const(**{"lattice.calls": 1})),
    ("corrdecay.lattice", "apply_position_disorder", "lattice.busy_s",
     _const(**{"lattice.calls": 1})),
    ("corrdecay.lattice", "build_array", "lattice.busy_s", _const(**{"lattice.calls": 1})),
    ("corrdecay.coupling", "build_coupling_matrices", "coupling.build_busy_s", None),
    ("corrdecay.coupling", "build_coupling_from_positions", "coupling.build_busy_s",
     _coupling_counts),
    ("corrdecay.coupling", "validate_psd", "coupling.psd_busy_s", None),
    ("corrdecay.coupling", "write_coupling_csv", "coupling.io_busy_s", _io_counts),
    ("corrdecay.coupling", "read_coupling_csv", "coupling.io_busy_s", _io_counts),
    ("corrdecay.coupling", "write_matrix_binary", "coupling.io_busy_s", _io_counts),
    ("corrdecay.coupling", "read_matrix_binary", "coupling.io_busy_s", _io_counts),
    ("corrdecay.spectral", "decompose", "spectral.eig_busy_s", _eig_counts),
    ("corrdecay.spectral", "gamma_max_only", "spectral.eig_busy_s", _eig_counts),
    ("corrdecay.spectral", "momentum_distribution", "spectral.other_busy_s", None),
    ("corrdecay.spectral", "spectrum_to_csv", "spectral.other_busy_s", None),
    ("corrdecay.kspace", "gamma_k_grid", "kspace.grid_busy_s", _grid_counts),
    ("corrdecay.kspace", "gamma_max_finite_grid", "kspace.grid_busy_s", None),
    ("corrdecay.bounds", "bounds_report", "bounds.busy_s", None),
    ("corrdecay.bounds", "driven_report", "bounds.busy_s", None),
    ("corrdecay.bounds", "burst_slope_upper_bound", "bounds.busy_s",
     _const(**{"bounds.eig_calls": 1})),
    ("corrdecay.sdp", "solve_low_rank", "sdp.lowrank_busy_s", _lowrank_counts),
    ("corrdecay.sdp", "round_to_product_state", "sdp.round_busy_s", None),
    ("corrdecay.sdp", "solve_projection", "sdp.projection_busy_s",
     lambda fn: lambda a, k, r: {"sdp.projection_iterations": r.iterations}),
    ("corrdecay.sdp", "sdp_certificates", "sdp.cert_busy_s", None),
    ("corrdecay.exactdiag", "SectorBasis.build", "exactdiag.basis_busy_s",
     lambda fn: lambda a, k, r: {"exactdiag.basis_states": r.dim}),
    ("corrdecay.exactdiag", "build_sector_dense", "exactdiag.dense_busy_s", None),
    ("corrdecay.exactdiag", "sector_matvec", "exactdiag.matvec_busy_s",
     _const(**{"exactdiag.matvec_calls": 1})),
    ("corrdecay.exactdiag", "lanczos_largest", "exactdiag.lanczos_busy_s",
     lambda fn: lambda a, k, r: {"exactdiag.lanczos_iterations": r[1]}),
    ("corrdecay.exactdiag", "exact_rstar", "exactdiag.solve_busy_s", None),
    ("corrdecay.exactdiag", "haar_rate_samples", "exactdiag.haar_busy_s", None),
    ("corrdecay.sweep", "run_sweep", "sweep.run_busy_s",
     lambda fn: lambda a, k, r: {"sweep.points": len(r.rows),
                                 "sweep.failed_points": sum(x.error is not None for x in r.rows)}),
    ("corrdecay.sweep", "fit_power_law", "sweep.fit_busy_s", None),
    ("corrdecay.sweep", "fit_table", "sweep.fit_busy_s", None),
    ("corrdecay.cli", "main", "cli.self_s", None),
]

BUCKETS = sorted({bucket for _, _, bucket, _ in TARGETS})


@dataclass
class Span:
    id: int
    name: str
    bucket: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict = field(default_factory=dict)


class Tracer:
    """Records a span per traced call; `installed()` rebinds and restores the targets."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name, bucket, make_counter):
        counter = make_counter(fn) if make_counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = {}
                if name == "corrdecay.cli.main":
                    argv = args[0] if args else kwargs.get("argv")
                    info["subcommand"] = argv[0] if argv else None
                counts = counter(args, kwargs, result) if counter and result is not None else {}
                with tracer._lock:
                    tracer.spans.append(Span(span_id, name, bucket, start, end, parent,
                                             threading.get_ident(), info))
                    for key, amount in counts.items():
                        tracer.counts[key] += amount

        setattr(traced, _MARK, True)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target in every loaded corrdecay namespace; restore on exit."""
        # import every target module before patching, so that no module binds a
        # wrapper at import time that the restore step below would not know about
        modules = {name: importlib.import_module(name) for name, _, _, _ in TARGETS}
        patches = []  # (owner, attribute, original value)
        try:
            for module_name, attr, bucket, make_counter in TARGETS:
                module = modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    wrapped = self._wrap(original.__func__, f"{module_name}.{attr}",
                                         bucket, make_counter)
                    setattr(cls, meth, classmethod(wrapped))
                    patches.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(original, f"{module_name}.{attr}", bucket, make_counter)
                for ns in corrdecay_namespaces():
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapped)
                            patches.append((ns, key, original))
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)


def corrdecay_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "corrdecay" or name.startswith("corrdecay."))]


def leftover_wrappers() -> list:
    """Names in corrdecay namespaces still bound to a tracing wrapper (should be empty)."""
    found = []
    for ns in corrdecay_namespaces():
        for key, value in vars(ns).items():
            if getattr(value, _MARK, False):
                found.append(f"{ns.__name__}.{key}")
            elif inspect.isclass(value):
                for meth, member in vars(value).items():
                    func = getattr(member, "__func__", member)
                    if getattr(func, _MARK, False):
                        found.append(f"{ns.__name__}.{key}.{meth}")
    return found


def self_times(spans: list[Span], t_start: float, t_end: float) -> tuple[dict, float]:
    """Wall time of [t_start, t_end] attributed to span buckets, plus the remainder.

    Within one thread a span owns the parts of its interval that none of its
    children cover. Where spans of several threads own the same instant (the
    sweep's thread pool), that instant is shared equally among them, so the
    bucket totals plus the remainder add up to the wall time exactly.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    events = []  # (time, +1 start / -1 end, segment index)
    owner = []
    for s in spans:
        cursor = s.start
        pieces = []
        for kid in sorted(children[s.id], key=lambda k: k.start):
            if kid.start > cursor:
                pieces.append((cursor, kid.start))
            cursor = max(cursor, kid.end)
        if s.end > cursor:
            pieces.append((cursor, s.end))
        for lo, hi in pieces:
            lo, hi = max(lo, t_start), min(hi, t_end)
            if hi > lo:
                events.append((lo, 1, len(owner)))
                events.append((hi, -1, len(owner)))
                owner.append(s.bucket)
    events.sort(key=lambda e: (e[0], e[1]))
    totals = {bucket: 0.0 for bucket in BUCKETS}
    active: set = set()
    last = t_start
    for when, kind, seg in events:
        if active and when > last:
            share = (when - last) / len(active)
            for a in active:
                totals[owner[a]] += share
        last = when
        if kind == 1:
            active.add(seg)
        else:
            active.discard(seg)
    return totals, (t_end - t_start) - sum(totals.values())
