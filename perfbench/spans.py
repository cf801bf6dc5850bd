"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of ``relay_offload`` by replacing
module (or class) attributes from the benchmark's side; the package
itself is not edited.  Each wrapped call made while an op is active
becomes a span (name, start, end, parent span, op id, status), a leaf
total, or, for count-only layers, a counter increment.  Leaf layers are
the hot scalar kernels with no wrapped callees (``cycles_between``,
``lambert_w0``): a traced pass makes millions of those calls, so they
are kept as per-op call counts and summed durations instead of one
record each.  Spans live in flat arrays and are written out once at the
end.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

OK, RAISED, NONFINITE = 0, 1, 2


class Recorder:
    """Spans and counters of one traced pass; single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.status = array("b")
        self.child = array("d")  # summed duration of direct children
        self.leaves: dict[tuple[int, int], list] = {}  # (name id, op) -> [calls, seconds]
        self.counts: Counter[str] = Counter()
        self.op_id = -1  # -1: outside any op, nothing is recorded
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _append(self, name: str, start: float, end: float, parent: int, status: int) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.status.append(status)
        self.child.append(0.0)
        return idx

    def count(self, name: str, amount: int = 1) -> None:
        if self.op_id >= 0:
            self.counts[name] += amount

    def spanned(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        status_of: Callable[[object], int] | None = None,
    ) -> Callable:
        """Wrap ``fn`` so each call inside an op records one span.

        ``name`` may be a function of the call's arguments, for layers
        whose path depends on the input (the case-2 schemes).
        """
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            idx = self._append(label, clock(), math.nan, self._stack[-1] if self._stack else -1, OK)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.status[idx] = RAISED
                raise
            finally:
                self.end[idx] = end = clock()
                self._stack.pop()
                if self._stack:
                    self.child[self._stack[-1]] += end - self.start[idx]
            if status_of is not None:
                self.status[idx] = status_of(result)
            return result

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        """Wrap a hot kernel: per-op call count and summed duration only."""
        clock = time.perf_counter
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if self._stack:
                    self.child[self._stack[-1]] += elapsed
                total = self.leaves.setdefault((nid, self.op_id), [0, 0.0])
                total[0] += 1
                total[1] += elapsed

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call inside an op increments ``name.calls``."""

        def wrapper(*args, **kwargs):
            if self.op_id >= 0:
                self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installing wrappers ----------------------------------------------

    def patch(self, module_name: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` (or ``module.Class.attr``) by ``make(orig)``.

        A plain function is replaced in every loaded ``relay_offload``
        module that imported it by name, so ``from .x import f`` call
        sites are covered.  A name that no longer exists is recorded in
        :attr:`missing` and its layer reports zero calls.
        """
        try:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = make(orig)
        owners = [owner]
        if not path:
            owners = [
                mod
                for mod_name, mod in sorted(sys.modules.items())
                if mod_name.split(".")[0] == "relay_offload"
                and getattr(mod, name, None) is orig
            ]
        for target in owners:
            self._patches.append((target, name, orig))
            setattr(target, name, wrapped)

    def unpatch(self) -> None:
        for target, name, orig in reversed(self._patches):
            setattr(target, name, orig)
        self._patches.clear()

    # --- aggregation -------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Per name: span durations and statuses, call count, summed self time.

        A span's self time is its duration minus the durations of its
        direct children (spans and leaves).  Calls are strictly nested on
        one thread, so children never overlap and their summed duration
        is exactly the covered part.  A leaf's self time is its duration.
        """
        out: dict[str, dict] = defaultdict(
            lambda: {"duration": [], "status": [], "calls": 0, "self_s": 0.0}
        )
        for idx, nid in enumerate(self.name_id):
            entry = out[self.names[nid]]
            duration = self.end[idx] - self.start[idx]
            entry["duration"].append(duration)
            entry["status"].append(self.status[idx])
            entry["calls"] += 1
            entry["self_s"] += duration - self.child[idx]
        for (nid, _op), (calls, seconds) in self.leaves.items():
            entry = out[self.names[nid]]
            entry["calls"] += calls
            entry["self_s"] += seconds
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write the trace as JSON lines.

        Line 1 holds the header, the name table and the counters; then one
        line per span ``[name id, start, end, parent, op, status]`` and
        one per leaf total ``["leaf", name id, op, calls, seconds]``.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header, "names": self.names, "counts": self.counts}) + "\n")
            for idx in range(len(self.start)):
                fh.write(
                    f"[{self.name_id[idx]},{self.start[idx]!r},{self.end[idx]!r},"
                    f"{self.parent[idx]},{self.op[idx]},{self.status[idx]}]\n"
                )
            for (nid, op), (calls, seconds) in sorted(self.leaves.items()):
                fh.write(f'["leaf",{nid},{op},{calls},{seconds!r}]\n')
