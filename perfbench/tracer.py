"""Per-layer tracing from outside the package.

``Tracer.install`` wraps public callables of the findist layers.  A function
is replaced in every findist module namespace that bound it by name, so
``distance`` is traced whether it is called from geometry, counting or
incidence.  Spanned targets record calls and self time (span duration minus
the part covered by child spans) and keep one span per call in memory; counted
targets, the FieldElement/FieldSpec dunders among them, are wrapped at class
level and record calls only.  A target that no longer exists is skipped, and
its metrics are absent from the result.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import time
from array import array

MODULES = (
    "findist",
    "findist.field",
    "findist.geometry",
    "findist.motions",
    "findist.clifford",
    "findist.kinematic",
    "findist.counting",
    "findist.incidence",
    "findist.generators",
    "findist.harness",
    "findist.cli",
)

# (metric prefix, module, attribute path).  Two targets may share a prefix.
SPANNED = (
    ("geometry.distance", "findist.geometry", "distance"),
    ("geometry.curve_through", "findist.geometry", "curve_through"),
    ("geometry.equidistant_line", "findist.geometry", "equidistant_line"),
    ("geometry.reflect", "findist.geometry", "reflect"),
    ("counting.max_collinear_cocircular", "findist.counting", "max_collinear_cocircular"),
    ("counting.segment_classes", "findist.counting", "segment_classes"),
    ("counting.bisector_stats", "findist.counting", "bisector_stats"),
    ("counting.isosceles_count", "findist.counting", "isosceles_count"),
    ("counting.distance_stats", "findist.counting", "distance_stats"),
    ("counting.verify_identities", "findist.counting", "verify_identities"),
    ("counting.prune_curve", "findist.counting", "prune_curve"),
    ("counting.prune_heavy", "findist.counting", "prune_heavy"),
    ("incidence.claim_reduction", "findist.incidence", "claim_reduction"),
    ("incidence.count_incidences", "findist.incidence", "count_incidences"),
    ("incidence.max_collinear", "findist.incidence", "max_collinear"),
    ("incidence.axial_pair_count", "findist.incidence", "axial_pair_count"),
    ("incidence.epsilon_term", "findist.incidence", "epsilon_term"),
    ("incidence.rudnev_ratio", "findist.incidence", "rudnev_ratio"),
    ("motions.motion_between_segments", "findist.motions", "motion_between_segments"),
    ("motions.enumerate_rotations", "findist.motions", "enumerate_rotations"),
    ("motions.all_motions", "findist.motions", "all_motions"),
    ("kinematic.r_tau_plane", "findist.kinematic", "r_tau_plane"),
    ("kinematic.phi_left", "findist.kinematic", "phi_left"),
    ("kinematic.kappa", "findist.kinematic", "kappa"),
    ("kinematic.all_proj_points", "findist.kinematic", "all_proj_points"),
    ("kinematic.kappa_inv", "findist.kinematic", "kappa_inv"),
    ("clifford.sandwich", "findist.clifford", "sandwich"),
    ("clifford.even_units", "findist.clifford", "even_units"),
    ("clifford.rho_star", "findist.clifford", "rho_star"),
    ("generators.generate", "findist.generators", "generate"),
    ("harness.render", "findist.harness", "Report.render"),
    ("harness.render", "findist.harness", "Report.render_csv"),
    ("harness.run", "findist.harness", "run"),
)

COUNTED = (
    ("field.mul", "findist.field", "FieldElement.__mul__"),
    ("field.add", "findist.field", "FieldElement.__add__"),
    ("field.sub", "findist.field", "FieldElement.__sub__"),
    ("field.inverse", "findist.field", "FieldElement.inverse"),
    ("field.pow", "findist.field", "FieldElement.__pow__"),
    ("field.spec_eq", "findist.field", "FieldSpec.__eq__"),
    ("kinematic.ProjPlane.contains", "findist.kinematic", "ProjPlane.contains"),
    ("clifford.CliffordElement.mul", "findist.clifford", "CliffordElement.__mul__"),
    ("clifford.EvenCliffordElement.mul", "findist.clifford", "EvenCliffordElement.__mul__"),
)

FIELD_OPS = ("field.mul", "field.add", "field.sub", "field.inverse", "field.pow")
CPU_TIMED = "harness.run"
REDUCTION = "incidence.claim_reduction"


def _resolve(module: str, path: str):
    """(owner, attribute name, value) for a dotted path, or None if any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
        if not inspect.isclass(owner):
            return None
    value = owner.__dict__.get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Wraps the layer callables for the rest of the process.

    Spans and counts stay in memory until ``metrics`` and ``write_spans``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.cpu_s = 0.0
        self.reductions = 0
        self.lifted = 0
        self._counts: dict[str, list] = {}  # prefix -> [calls]
        self._stack: list[list] = []  # [span id, time covered by children]
        self._ids = itertools.count()
        # one entry per span, in completion order
        self._span_name = array("l")
        self._span_id = array("q")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._origin = time.perf_counter()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for prefix, module, path in SPANNED:
            found = _resolve(module, path)
            if found is not None:
                self._replace(found, self._spanned(self._slot(prefix), found[2], prefix))
        for prefix, module, path in COUNTED:
            found = _resolve(module, path)
            if found is not None:
                self._replace(found, self._counted(prefix, found[2]))

    def _slot(self, prefix: str) -> int:
        if prefix not in self._index:
            self._index[prefix] = len(self.names)
            self.names.append(prefix)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._index[prefix]

    def _replace(self, found, wrapper) -> None:
        owner, attr, original = found
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
            return
        for module_name in MODULES:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)

    def _counted(self, prefix: str, fn):
        cell = self._counts.setdefault(prefix, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _spanned(self, slot: int, fn, prefix: str):
        enter, leave = self._enter, self._leave
        cpu = prefix == CPU_TIMED
        reduction = prefix == REDUCTION

        if inspect.isgeneratorfunction(fn):
            # a generator runs only while resumed: one span per resume
            def wrapper(*args, **kwargs):
                self.calls[slot] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(slot, frame)
                    yield value

            wrapper.__wrapped__ = fn
            return wrapper

        def wrapper(*args, **kwargs):
            self.calls[slot] += 1
            c0 = time.process_time() if cpu else 0.0
            frame = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(slot, frame)
                if cpu:
                    self.cpu_s += time.process_time() - c0
            if reduction:
                self.reductions += 1
                self.lifted += bool(result.lifted)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _enter(self) -> list:
        frame = [next(self._ids), 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _leave(self, slot: int, frame: list) -> None:
        end = time.perf_counter()
        span_id, children, start = frame
        self._stack.pop()
        duration = end - start
        self.self_s[slot] += duration - children
        parent = -1
        if self._stack:
            outer = self._stack[-1]
            outer[1] += duration
            parent = outer[0]
        self._span_name.append(slot)
        self._span_id.append(span_id)
        self._span_parent.append(parent)
        self._span_start.append(start - self._origin)
        self._span_end.append(end - self._origin)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values by metric name; only targets that exist appear."""
        out = {}
        for slot, prefix in enumerate(self.names):
            out[f"{prefix}.calls"] = self.calls[slot]
            out[f"{prefix}.self_s"] = self.self_s[slot]
        for prefix, cell in self._counts.items():
            out[f"{prefix}.calls"] = cell[0]
        if any(f"{p}.calls" in out for p in FIELD_OPS):
            out["field.ops"] = sum(out.get(f"{p}.calls", 0) for p in FIELD_OPS)
        if CPU_TIMED in self._index:
            out[f"{CPU_TIMED}.cpu_s"] = self.cpu_s
        if REDUCTION in self._index:
            out["incidence.reductions"] = self.reductions
            out["incidence.lifted"] = self.lifted
            out["incidence.lift_ratio"] = self.lifted / self.reductions if self.reductions else 0.0
        return out

    def write_spans(self, path: str) -> int:
        """Write every span as one JSON line; returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self._span_id)):
                fh.write(
                    json.dumps(
                        {
                            "id": self._span_id[i],
                            "parent": self._span_parent[i],
                            "name": self.names[self._span_name[i]],
                            "start": self._span_start[i],
                            "end": self._span_end[i],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        return len(self._span_id)
