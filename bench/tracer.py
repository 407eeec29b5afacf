"""Counting timers around dictsel's public functions, installed from outside.

``Tracer.install`` replaces every public function and public method of the
traced modules with a wrapper that counts calls and times them.  Module
functions are replaced at each module attribute that holds them, which is
where callers look them up at call time (``dictsel.offline.factor_insert``
as well as ``dictsel.linalg.factor_insert``); methods are replaced on their
class (``SupportFactorization.solve``, ``PartitionMatroid.independent``).
``uninstall`` puts the originals back.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the wrapped calls made inside it; a module's time counts only
its outermost spans, so ``ls_solve`` calling ``factor_insert`` is not
counted twice.  Statistics are kept per phase, which the benchmark sets.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

MODULES = ("groundset", "data_io", "linalg", "constraints", "encoders", "offline", "online", "cli")

# Fields of one statistics record.
CALLS, TOTAL_S, SELF_S, MODULE_S, RANK_DEFICIENT = range(5)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.phase = "setup"
        self.stats: dict[tuple[str, str, str], list] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._rank_deficient = package.errors.RankDeficient

    def reset(self) -> None:
        self.stats = {}

    def record(self, module: str, name: str) -> list:
        key = (self.phase, module, name)
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0, 0.0, 0]
        return rec

    def _wrap(self, module: str, name: str, fn):
        tracer = self
        stack = self._stack
        rank_deficient = self._rank_deficient

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [module, 0.0]
            stack.append(frame)
            raised = None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except rank_deficient as exc:
                raised = exc
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                rec = tracer.record(module, name)
                rec[CALLS] += 1
                rec[TOTAL_S] += elapsed
                rec[SELF_S] += elapsed - frame[1]
                if parent is None or parent[0] != module:
                    rec[MODULE_S] += elapsed
                if parent is not None:
                    parent[1] += elapsed
                # Count each RankDeficient once, in the call that raised it.
                if raised is not None and not getattr(raised, "_bench_counted", False):
                    raised._bench_counted = True
                    rec[RANK_DEFICIENT] += 1

        return timed

    def install(self) -> None:
        if self._patches:
            return
        replaced: dict[int, object] = {}
        for short in MODULES:
            module = getattr(self.package, short)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(short, name, obj))
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            wrapper = self._wrap(short, f"{obj.__name__}.{attr}", member)
                            self._patches.append((obj, attr, member))
                            setattr(obj, attr, wrapper)
        # Rebind every module attribute that holds a wrapped function.
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package.__name__ or mod_name.startswith(self.package.__name__ + ".")):
                continue
            for name, obj in list(vars(module).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, entry[1])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- reading the statistics -------------------------------------------

    def _sum(self, phase: str, module: str, field: int, name: str | None = None) -> float:
        return sum(
            rec[field]
            for (ph, mod, fn), rec in self.stats.items()
            if ph == phase and mod == module and (name is None or fn == name)
        )

    def module_s(self, phase: str, module: str) -> float:
        """Time in the module's outermost spans."""
        return self._sum(phase, module, MODULE_S)

    def self_s(self, phase: str, module: str) -> float:
        """Time in the module's own code, wrapped children excluded."""
        return self._sum(phase, module, SELF_S)

    def total_s(self, phase: str, module: str, name: str) -> float:
        return self._sum(phase, module, TOTAL_S, name)

    def calls(self, phase: str, module: str, name: str) -> int:
        return int(self._sum(phase, module, CALLS, name))

    def rank_deficient(self, phase: str, module: str) -> int:
        return int(self._sum(phase, module, RANK_DEFICIENT))
