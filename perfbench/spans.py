"""In-memory spans around the public functions of the ionchain layers.

A traced pass replaces every public function and method of the layer
modules with a wrapper that records one span per call: name, layer,
start, end, parent span and pass id. The wrappers are bound everywhere the
original object was reachable, including the package-level re-exports in
`ionchain/__init__` and names imported module-to-module, and `uninstall`
puts the originals back.

Self time follows the usual rule: a span's duration minus the union of
the intervals its direct children cover. A layer's self time is the sum
over its spans. A per-function metric such as `coupling.tensors_s` also
takes the self time of the helpers the function calls inside its own
layer (here `ion_tensor` and `mode_tensor`), unless a helper has a metric
of its own (`FockBasis.lowering` inside `build_rwa_interaction`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "equilibrium", "modes", "coupling", "resonances",
          "quantum", "classical")


@dataclass
class Span:
    name: str            # "layer.qualname", e.g. "coupling.coupling_tensors"
    layer: str
    start: float         # perf_counter seconds
    end: float
    parent: int          # index into the span list, -1 for a root
    pass_id: int
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def func(self) -> str:
        return self.name.split(".", 1)[1]


def _args_attrs(func: str, args, kwargs, result) -> dict:
    """Span attributes some per-layer metrics need; cheap to take."""
    if func == "coupling_tensors":
        return {"n": int(len(args[0]))}
    if func == "build_catalog":
        return {"n": int(args[0] if args else kwargs["n_ions"])}
    if func == "integrate" and result is not None:
        dt = kwargs.get("dt", 1.0e-3)
        t_final = kwargs.get("t_final", 100.0)
        # leading axes in front of (samples, ions, 3) are a batch
        batch = math.prod(result.positions.shape[:-3])
        return {"steps": int(round(t_final / dt)) * batch}
    if func == "evolve":
        h = args[1] if len(args) > 1 else kwargs["h"]
        return {"h": id(h)}
    if func in ("build_free_hamiltonian", "build_full_interaction",
                "build_rwa_interaction") and result is not None:
        # counted after the pass, outside every timed interval
        return {"result": result}
    if func == "Trajectory.energy_drift" and result is not None:
        return {"value": float(result)}
    return {}


class Recorder:
    """Collects spans of one pass; `install` wraps, `uninstall` restores."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, func, layer: str, qualname: str):
        name = f"{layer}.{qualname}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, layer, 0.0, 0.0,
                        stack[-1] if stack else -1, self.pass_id)
            spans.append(span)
            stack.append(index)
            result = None
            span.start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                span.attrs = _args_attrs(qualname, args, kwargs, result)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "ionchain") -> None:
        """Wrap the public functions and methods of every layer module."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[id(obj)] = self._wrap(obj, layer, attr)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(obj, layer)
        # rebind every name that refers to a wrapped function: the defining
        # module, the package re-exports and `from .x import f` copies
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._set(module, attr, wrapper)

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, layer, qualname))
            elif isinstance(raw, (classmethod, staticmethod)):
                wrapped = self._wrap(raw.__func__, layer, qualname)
                self._set(cls, attr, type(raw)(wrapped))

    def uninstall(self) -> None:
        """Put back every original object, newest binding first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- output -----------------------------------------------------------

    def records(self) -> list[dict]:
        """Spans as plain records, for writing out once the pass ends."""
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "pass": s.pass_id, "error": s.error}
                for s in self.spans]


# --- span arithmetic ------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - union_length(children[i])
            for i, s in enumerate(spans)]


# functions with a per-layer metric of their own (see layer_metrics)
METRIC_FUNCS = frozenset((
    "solve_equilibrium", "coupling_tensors", "check_identities",
    "build_catalog", "FockBasis.lowering", "FockBasis.raising",
    "build_free_hamiltonian", "build_rwa_interaction",
    "build_full_interaction", "evolve", "entanglement_entropy",
    "integrate", "mode_projection", "spectrum"))


def attribution(spans: list[Span]) -> list[int]:
    """For each span, the span its self time is accounted to.

    That is the span itself if it enters its layer from outside or has a
    metric of its own, else whatever its same-layer parent is accounted to.
    """
    owner = []
    for i, s in enumerate(spans):
        p = s.parent
        inherit = (p >= 0 and spans[p].layer == s.layer
                   and s.func not in METRIC_FUNCS)
        owner.append(owner[p] if inherit else i)
    return owner


def root_time(spans: list[Span]) -> float:
    """Wall time covered by at least one span."""
    return union_length((s.start, s.end) for s in spans if s.parent < 0)


def storage_bytes(matrix) -> int:
    """Bytes held by a dense array or by the arrays of a scipy.sparse one."""
    if hasattr(matrix, "nbytes"):
        return int(matrix.nbytes)
    return sum(int(getattr(matrix, part).nbytes)
               for part in ("data", "indices", "indptr", "row", "col",
                            "offsets")
               if hasattr(getattr(matrix, part, None), "nbytes"))


def unit_of(name: str) -> str:
    """Unit of a metric returned by layer_metrics."""
    if name.endswith(("_us", "_us_per_step")):
        return "us"
    if name.endswith(("_s", ".s", "_s.n20")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("energy_drift", "_reuse")):
        return "ratio"
    return "count"


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    own = self_times(spans)
    owner = attribution(spans)
    merged = [0.0] * len(spans)
    for i, o in enumerate(owner):
        merged[o] += own[i]

    def entries(func: str, pick=lambda s: True) -> list[int]:
        return [i for i, s in enumerate(spans) if s.func == func and pick(s)]

    def by_root(func: str, pick=lambda s: True) -> float:
        return sum(merged[i] for i in entries(func, pick))

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own)
                                     if s.layer == layer)
        # calls into the layer from another layer or from the pass loop
        out[f"{layer}.calls"] = sum(
            1 for s in spans if s.layer == layer
            and (s.parent < 0 or spans[s.parent].layer != layer))
        out[f"{layer}.errors"] = sum(1 for s in spans
                                     if s.layer == layer and s.error)
    # the pass loop's own time: stdout capture, timing, dispatch
    out["harness.self_s"] = wall_s - root_time(spans)

    out["equilibrium.solve_s"] = by_root("solve_equilibrium")
    out["equilibrium.solve_calls"] = len(entries("solve_equilibrium"))
    out["modes.s"] = out["modes.self_s"]

    out["coupling.tensors_s"] = by_root("coupling_tensors")
    out["coupling.tensors_calls"] = len(entries("coupling_tensors"))
    n20 = entries("coupling_tensors", lambda s: s.attrs.get("n") == 20)
    out["coupling.tensors_s.n20"] = (
        sum(merged[i] for i in n20) / len(n20) if n20 else 0.0)
    out["coupling.identities_s"] = by_root("check_identities")

    catalogs = entries("build_catalog")
    distinct = {spans[i].attrs.get("n") for i in catalogs}
    out["resonances.catalog_self_s"] = by_root("build_catalog")
    out["resonances.catalog_calls"] = len(catalogs)
    out["resonances.catalog_distinct_n"] = len(distinct)
    out["resonances.catalog_reuse"] = (len(distinct) / len(catalogs)
                                       if catalogs else 0.0)

    out["quantum.fock_op_s"] = (by_root("FockBasis.lowering")
                                + by_root("FockBasis.raising"))
    out["quantum.build_free_s"] = by_root("build_free_hamiltonian")
    out["quantum.build_rwa_s"] = by_root("build_rwa_interaction")
    out["quantum.build_full_s"] = by_root("build_full_interaction")
    seen: set[int] = set()
    first = 0.0
    steps = []
    for i in entries("evolve"):
        if spans[i].attrs["h"] in seen:
            steps.append(merged[i])
        else:
            seen.add(spans[i].attrs["h"])
            first += merged[i]
    out["quantum.evolve_first_s"] = first
    out["quantum.evolve_step_us"] = (statistics.median(steps) * 1e6
                                     if steps else 0.0)
    out["quantum.evolve_calls"] = len(entries("evolve"))
    out["quantum.entropy_s"] = by_root("entanglement_entropy")
    dim = rwa_nnz = full_nnz = h_bytes = 0
    for s in spans:
        h = s.attrs.get("result")
        if h is None:
            continue
        dim = h.basis.dimension
        h_bytes += storage_bytes(h.matrix)
        if s.func == "build_rwa_interaction":
            rwa_nnz += int((h.matrix != 0).sum())
        elif s.func == "build_full_interaction":
            full_nnz += int((h.matrix != 0).sum())
    out["quantum.dim"] = dim
    out["quantum.rwa_nnz"] = rwa_nnz
    out["quantum.full_nnz"] = full_nnz
    out["quantum.h_bytes"] = h_bytes

    integrations = entries("integrate")
    total_steps = sum(spans[i].attrs.get("steps", 0) for i in integrations)
    out["classical.integrate_s"] = by_root("integrate")
    out["classical.integrate_calls"] = len(integrations)
    out["classical.verlet_us_per_step"] = (
        out["classical.integrate_s"] * 1e6 / total_steps if total_steps else 0.0)
    out["classical.projection_s"] = by_root("mode_projection")
    out["classical.spectrum_s"] = by_root("spectrum")
    drifts = [s.attrs["value"] for s in spans
              if s.func == "Trajectory.energy_drift" and "value" in s.attrs]
    out["classical.energy_drift"] = drifts[0] if drifts else 0.0
    return out
