"""In-memory span tracer installed around the program's public entry points.

The benchmark never edits the program: :class:`Tracer` swaps wrappers in
for public functions and methods (every module attribute bound to the
original function, so names a module imported with ``from x import y``
are covered too) and puts the originals back on :meth:`Tracer.uninstall`.

Each span records its name, start, end, parent span and run id, held in
flat arrays while the run lasts and written out once at the end
(:meth:`Tracer.save`).  Wrapping a method a class does not define, or a
function no module binds, raises: a renamed entry point fails the run
instead of reading 0.  A wrapper opens no span while the tracer is
inactive (``run_id < 0``) or when the innermost open span already has
the same name, so a subclass method delegating to ``super()`` is one
span, not two.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

#: ``after(counters, args, kwargs, result, token)`` — runs after the span
#: closes, so its cost is not billed to the wrapped layer.
AfterHook = Callable[[dict[str, float], tuple, dict, Any, Any], None]
#: ``before(args) -> token`` — state captured before the call.
BeforeHook = Callable[[tuple], Any]


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self._stack: list[int] = []
        #: spans are recorded only while this is >= 0
        self.run_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        #: objects whose constructor ran while active, by class name
        self.instances: dict[str, list[Any]] = defaultdict(list)
        self._patches: list[tuple[Any, str, Any]] = []
        # forked pool workers inherit the wrappers but record nothing:
        # their spans could never reach the parent
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.run_id = -1

    # -- span recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        before: BeforeHook | None = None,
        after: AfterHook | None = None,
    ) -> Callable[..., Any]:
        nid = self._name_id(name)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.run_id < 0 or (
                stack and tracer.name[stack[-1]] == nid
            ):
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.run.append(tracer.run_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer.counters, args, kwargs, result, token)
            return result

        return traced

    def register(self, cls: type) -> None:
        """Remember every ``cls`` instance constructed while active."""
        original = cls.__dict__["__init__"]
        bucket = self.instances[cls.__name__]
        tracer = self

        @functools.wraps(original)
        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            if tracer.run_id >= 0:
                bucket.append(obj)

        self._patch(cls, "__init__", init)

    # -- patching --------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(
        self,
        cls: type,
        method: str,
        name: str,
        before: BeforeHook | None = None,
        after: AfterHook | None = None,
    ) -> None:
        """Wrap ``cls.method``; ``cls`` itself must define it."""
        if method not in cls.__dict__:
            raise AttributeError(
                f"{cls.__qualname__} defines no {method!r} to trace as {name!r}"
            )
        self._patch(
            cls, method, self.wrap(cls.__dict__[method], name, before, after)
        )

    def wrap_function(
        self,
        fn: Callable[..., Any],
        name: str,
        before: BeforeHook | None = None,
        after: AfterHook | None = None,
    ) -> None:
        """Wrap ``fn`` under every ``repro`` module attribute bound to it."""
        traced = self.wrap(fn, name, before, after)
        patched = len(self._patches)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, traced)
        if len(self._patches) == patched:
            raise AttributeError(
                f"no repro module binds {fn.__qualname__} to trace as {name!r}"
            )

    def reset(self) -> None:
        """Drop counters and remembered instances (spans are kept)."""
        self.counters.clear()
        for bucket in self.instances.values():
            bucket.clear()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def self_times(self, runs: set[int]) -> tuple[dict[str, float],
                                                  dict[str, int], float]:
        """Per-name self seconds and call counts over spans of ``runs``.

        Self time is a span's duration minus the durations of its direct
        children.  Also returns the summed duration of top-level spans,
        which equals the sum of all self times.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        keep = np.isin(a["run"], np.fromiter(runs, dtype=np.int32))
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        for nid, name in enumerate(self.names):
            sel = keep & (a["name"] == nid)
            seconds[name] = float(own[sel].sum())
            calls[name] = int(sel.sum())
        top = float(dur[keep & ~has_parent].sum())
        return seconds, calls, top

    def save(self, path: Path, meta: dict[str, Any]) -> None:
        """Write every span (columnar, compressed) plus ``meta``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            meta=np.array(json.dumps(meta, sort_keys=True)),
            **self.arrays(),
        )
