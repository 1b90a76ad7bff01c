"""Call tracer that wraps the public functions of a package from outside.

Every public function defined in a layer module is wrapped in every namespace
of the package that binds it (``reduce_state`` lives in ``states`` and is
bound again in ``closed_form`` and in the package root), so calls are seen
whichever binding the caller uses.  Each wrapper records calls, busy time and
self time (busy time minus the time of wrapped callees).  Nothing is wrapped
until ``install`` and everything is restored by ``uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class FunctionStats:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    # Sum of a per-call count taken from the result (see ``Tracer(units=...)``).
    units: int = 0


class Tracer:
    """Wraps ``package.<layer>`` functions; stats are keyed by ``"layer.name"``.

    ``units`` maps a key to a function of the call's result that returns a
    count to accumulate, such as the steps of an integration.  A layer or
    function that does not exist is listed by ``absent`` instead of failing.
    """

    def __init__(self, package: str, layers: tuple[str, ...],
                 units: dict[str, Callable[[object], int]] | None = None):
        self.layers = layers
        self.stats: dict[str, FunctionStats] = {}
        self.missing_layers: list[str] = []
        self.unit_errors = 0
        self._units = units or {}
        self._stack: list[float] = []
        self._bindings: list[tuple[dict, str, object, object]] = []
        wrappers = {}
        for layer in layers:
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                self.missing_layers.append(layer)
                continue
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) \
                        and obj.__module__ == module.__name__:
                    key = f"{layer}.{name}"
                    self.stats[key] = FunctionStats()
                    wrappers[id(obj)] = (obj, self._wrap(obj, key))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._bindings.append((namespace, name, obj, wrappers[id(obj)][1]))

    def _wrap(self, fn, key: str):
        stats = self.stats[key]
        stack = self._stack
        unit = self._units.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.busy += elapsed
                stats.self_time += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if unit is not None:
                try:
                    stats.units += int(unit(result))
                except (AttributeError, TypeError, IndexError, ValueError):
                    self.unit_errors += 1
            return result

        return wrapper

    def bindings(self) -> list[tuple[str, str]]:
        """(namespace, name) of every wrapped binding."""
        return [(ns["__name__"], name) for ns, name, _, _ in self._bindings]

    def install(self) -> None:
        for namespace, name, _, wrapper in self._bindings:
            namespace[name] = wrapper

    def uninstall(self) -> None:
        for namespace, name, original, _ in self._bindings:
            namespace[name] = original

    def absent(self, keys) -> list[str]:
        return [key for key in keys if key not in self.stats]

    def get(self, key: str) -> FunctionStats:
        return self.stats.get(key, FunctionStats())

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self_time for k, s in self.stats.items() if k.startswith(prefix))

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(s.calls for k, s in self.stats.items() if k.startswith(prefix))
