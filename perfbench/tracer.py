"""Layer tracer that times calls into a package from outside it.

A :class:`Tracer` replaces named functions and methods with timing
wrappers for as long as it is installed, then puts the originals back.
Nothing in the traced package is edited. A module-level function is
replaced in every module of its package that binds it, so a call through
``leodcb.env.position_at`` is timed just like one through
``leodcb.orbits.position_at``. A method is replaced on its class.

Each wrapped call is a span. Per span name the tracer keeps the call
count, the inclusive seconds ``s`` and the self seconds ``self_s`` (``s``
minus the time spent in wrapped calls made from inside it), plus the
inclusive seconds per (caller span, callee span) edge. A target whose
module, class or function no longer exists is recorded in ``missing``
and skipped, so the tracer keeps working when a refactor removes it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One plain Python function or method to time.

    ``attr`` is a dotted path inside ``module``: ``"position_at"`` or
    ``"DcbUplinkEnv.step"``. ``observe(stats, args, kwargs, result)``,
    if given, runs after each call and may update ``stats.counters``.
    """

    name: str
    module: str
    attr: str
    observe: Callable | None = None


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Installs timing wrappers on ``targets``; use as a context manager.

    Statistics accumulate across installs, so one tracer can cover
    several traced operations with untraced ones in between.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.stats = {t.name: SpanStats() for t in self.targets}
        self.edges: dict[tuple[str, str], list] = {}
        self.missing: set[str] = set()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for target in self.targets:
                self._install_one(target)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _install_one(self, target: Target) -> None:
        *path, name = target.attr.split(".")
        try:
            owner = importlib.import_module(target.module)
            for part in path:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            self.missing.add(target.name)
            return
        if isinstance(owner, type):
            method = vars(owner).get(name)
            if not isinstance(method, types.FunctionType):
                self.missing.add(target.name)
                return
            self._patch(owner, name, self._wrap(target, method))
            return
        original = getattr(owner, name, None)
        if not isinstance(original, types.FunctionType):
            self.missing.add(target.name)
            return
        wrapped = self._wrap(target, original)
        package = target.module.split(".")[0]
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == package or module_name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, target: Target, fn):
        stats = self.stats[target.name]
        stack = self._stack
        edges = self.edges
        observe = target.observe
        span = target.name
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, span]     # [seconds in wrapped children, span name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.s += elapsed
                stats.self_s += elapsed - frame[0]
                edge = edges.get((parent, span))
                if edge is None:
                    edges[(parent, span)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
            if observe is not None:
                observe(stats, args, kwargs, result)
            return result

        return wrapper

    def edge_table(self) -> list[dict]:
        """Caller/callee edges with call counts and inclusive seconds."""
        return [
            {"caller": caller, "callee": callee, "calls": calls, "s": seconds}
            for (caller, callee), (calls, seconds) in sorted(
                self.edges.items(), key=lambda item: -item[1][1]
            )
        ]
