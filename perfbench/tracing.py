"""Outside-in tracing: wrap the library's public functions and methods.

Tracer.install() replaces every public function and method of the layer
modules, and every name re-imported from them into a sibling module (for
example ``dynamics.compare``, which is ``exact.compare``), with a wrapper
that records a span: name, start, end, parent span and op id.  Spans are
kept in memory and written out at the end; self time is a span's
duration minus its child spans.  Wrappers record only while an op is
running, so input generation and result checks cost nothing in the
trace.  The library's source is not touched.
"""

from __future__ import annotations

import csv
import inspect
import itertools
import sys
from array import array
from time import perf_counter

from cuspdyn import exact

LAYERS = ("exact", "moebius", "dynamics", "flow_oracle", "transfer", "tessellation")

# Operators are the exact layer's arithmetic and ordering; __init__ of the
# collocation operator is where its matrix is built.
TRACED_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__lt__", "__le__", "__gt__", "__ge__",
}
TRACED_INITS = {"transfer.CollocationOperator"}

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__", "reciprocal")

# Metric groups: a group's self time is the sum over its spans, and its
# calls count only entries not nested in another span of the same group.
GROUPS = {
    "exact.compare": {"exact.compare", "exact.compare_detailed"}
    | {f"exact.BoundaryValue.{m}" for m in ("__lt__", "__le__", "__gt__", "__ge__")},
    "exact.arith": {f"exact.{c}.{m}" for c in ("Rational", "Surd") for m in _ARITH}
    | {"exact.normalize_surd", "exact.floor_exact", "exact.from_fraction"},
    "moebius.apply_boundary": {"moebius.GroupElement.apply_boundary", "moebius.apply_boundary"},
    "moebius.apply_hpoint": {"moebius.GroupElement.apply_hpoint"},
    "dynamics.apply_F": {"dynamics.apply_F"},
    "dynamics.branch_of": {"dynamics.BranchTable.branch_of"},
    "dynamics.code_future": {"dynamics.code_future"},
    "dynamics.code_two_sided": {"dynamics.code_two_sided"},
    "dynamics.accelerate_to_cf": {"dynamics.accelerate_to_cf"},
    "flow_oracle.first_return": {"flow_oracle.first_return_geometric"},
    "flow_oracle.previous_exterior": {"flow_oracle.previous_exterior_geometric"},
    "transfer.collocation_build": {"transfer.collocation_matrix",
                                   "transfer.CollocationOperator.__init__"},
    "transfer.eigenvalues": {"transfer.CollocationOperator.eigenvalues"},
    "tessellation.reduce_point": {"tessellation.reduce_point",
                                  "tessellation.reduce_point_detailed"},
    "tessellation.locate_cell": {"tessellation.locate_cell"},
    "tessellation.build_domain": {"tessellation.build_domain", "tessellation.modular_domain"},
}
_GROUP_OF = {name: g for g, names in GROUPS.items() for name in names}
SPAN_CAP = 100_000  # spans kept for the CSV; counts and self times cover all
_ORACLE = ("flow_oracle.first_return", "flow_oracle.previous_exterior")


def _coeff_bits(value) -> int:
    if isinstance(value, tuple):
        value = value[0]
    if isinstance(value, exact.Surd):
        return max(abs(value.a).bit_length(), abs(value.b).bit_length(), value.c.bit_length())
    if isinstance(value, exact.Rational):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return 0


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.group_ids: dict[str, int] = {}
        self.span_group: list[int] = []
        self.self_s: list[float] = []
        self.group_depth: list[int] = []
        self.group_calls: list[int] = []
        self.stack: list[list] = []
        self.op_id = -1  # -1: no op running, wrappers pass through
        self.t0 = perf_counter()
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self.compares_in_oracle = 0
        self.coeff_bits_max = 0
        self.letters = self.runs = 0
        self.matrix_dims: list[int] = []
        self.reduce_rounds: list[int] = []
        self._restore: list[tuple] = []
        self._oracle = [self._group(g) for g in _ORACLE]
        self._compare = self._group("exact.compare")

    def _group(self, name: str) -> int:
        gid = self.group_ids.get(name)
        if gid is None:
            gid = self.group_ids[name] = len(self.group_ids)
            self.group_depth.append(0)
            self.group_calls.append(0)
        return gid

    # --- recording ------------------------------------------------------------

    def enter(self, sid: int) -> None:
        gid = self.span_group[sid]
        if self.group_depth[gid] == 0:
            self.group_calls[gid] += 1
            if gid == self._compare and any(self.group_depth[g] for g in self._oracle):
                self.compares_in_oracle += 1
        self.group_depth[gid] += 1
        idx = len(self.span_start)
        if idx < SPAN_CAP:
            self.span_name.append(sid)
            self.span_op.append(self.op_id)
            self.span_parent.append(self.stack[-1][3] if self.stack else -1)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.spans_dropped += 1
        frame = [sid, 0.0, 0.0, idx]
        self.stack.append(frame)
        frame[1] = now = perf_counter()
        if idx >= 0:
            self.span_start.append(now)

    def exit(self) -> None:
        end = perf_counter()
        sid, start, child, idx = self.stack.pop()
        dur = end - start
        self.self_s[sid] += dur - child
        self.group_depth[self.span_group[sid]] -= 1
        if self.stack:
            self.stack[-1][2] += dur
        if idx >= 0:
            self.span_end[idx] = end

    def _observe(self, name: str):
        """Per-call facts a layer metric needs, taken from arguments or results."""
        group = _GROUP_OF.get(name)
        if group in ("exact.arith", "moebius.apply_boundary", "dynamics.apply_F"):
            def obs(args, result):
                bits = _coeff_bits(result)
                if bits > self.coeff_bits_max:
                    self.coeff_bits_max = bits
            return obs
        if name == "dynamics.code_future":
            def obs(args, result):
                self.letters += len(result.letters)
                self.runs += sum(1 for _ in itertools.groupby(result.letters))
            return obs
        if name == "transfer.CollocationOperator.__init__":
            return lambda args, result: self.matrix_dims.append(args[0].matrix.shape[0])
        if name == "tessellation.reduce_point_detailed":
            return lambda args, result: self.reduce_rounds.append(result[2])
        return None

    def _wrap(self, fn, name: str):
        sid = len(self.names)
        self.names.append(name)
        self.span_group.append(self._group(_GROUP_OF.get(name, name)))
        self.self_s.append(0.0)
        observe = self._observe(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            tracer.enter(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers in place; every cuspdyn module sees the wrappers."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "cuspdyn" or n.startswith("cuspdyn."))]
        for layer in LAYERS:
            mod = sys.modules[f"cuspdyn.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}")
                    for m in mods:  # the defining module and every re-import
                        for alias, val in list(vars(m).items()):
                            if val is obj:
                                self._set(m, alias, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        public = not meth.startswith("_") or meth in TRACED_DUNDERS or (
                            meth == "__init__" and f"{layer}.{attr}" in TRACED_INITS)
                        if public and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrap(fn, f"{layer}.{attr}.{meth}"))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- results --------------------------------------------------------------

    def group_stats(self) -> dict:
        """{group: {"calls", "self_s"}} over every wrapped name."""
        out: dict = {}
        for name, gid in self.group_ids.items():
            out[name] = {"calls": self.group_calls[gid], "self_s": 0.0}
        for sid, name in enumerate(self.names):
            gname = _GROUP_OF.get(name, name)
            out[gname]["self_s"] += self.self_s[sid]
        return out

    def write_spans(self, path) -> int:
        """Write kept spans as CSV (times relative to tracer creation)."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "op", "parent", "start_s", "end_s"])
            for i in range(len(self.span_start)):
                w.writerow([i, self.names[self.span_name[i]], self.span_op[i], self.span_parent[i],
                            f"{self.span_start[i] - self.t0:.9f}", f"{self.span_end[i] - self.t0:.9f}"])
        return len(self.span_start)
