"""Spans around seifinv's public functions, installed from outside the package.

Every plain function named in a layer module's ``__all__`` gets a wrapper,
and the wrapper is bound in place of the original under every name in every
``seifinv.*`` namespace that refers to it, so calls between modules and
within a module are traced too.  Spans stay in memory: per-request counters
(calls, self time, raised) for every function, distinct-argument counts for
the functions that may re-derive one value, and raw spans up to a cap.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("cli", "invariants", "admissibility", "surfaces", "torus_mcg", "filling", "census")
# Functions whose per-request ratio of distinct arguments to calls is reported.
DISTINCT = frozenset({"invariants.normalize", "filling.extension_condition"})
SPAN_CAP = 20000
MARK = "#seifbench-trace "  # prefix of the stderr line a traced child reports on


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [start_ns, child_ns, span_id]
        self.counts: dict[str, list[int]] = {}  # key -> [calls, self_ns, raised]
        self.args: dict[str, set] = {key: set() for key in DISTINCT}
        self.spans: list[tuple] = []  # (request, span_id, parent_id, key, start_ns, end_ns)
        self.request = 0
        self._next_id = 0
        modules = [m for name, m in sys.modules.items() if name == "seifinv" or name.startswith("seifinv.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"seifinv.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        self._bindings = [
            (module, attr, value, wrappers[value])
            for module in modules
            for attr, value in list(vars(module).items())
            if inspect.isfunction(value) and value in wrappers
        ]

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _wrap(self, key: str, fn):
        stack, clock, distinct = self.stack, time.perf_counter_ns, key in DISTINCT

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            self._next_id += 1
            frame = [clock(), 0, self._next_id]
            stack.append(frame)
            raised = 0
            try:
                return fn(*args, **kwargs)
            except Exception:  # SystemExit from cli.main is an exit, not a refusal
                raised = 1
                raise
            finally:
                end = clock()
                stack.pop()
                row = self.counts.get(key)
                if row is None:
                    row = self.counts[key] = [0, 0, 0]
                row[0] += 1
                row[1] += end - frame[0] - frame[1]
                row[2] += raised
                if distinct:
                    try:
                        self.args[key].add((args, tuple(kwargs.items())))
                    except TypeError:  # unhashable arguments are not compared
                        pass
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.request, frame[2], parent, key, frame[0], end))
                if stack:  # the parent's self time excludes this span and its bookkeeping
                    stack[-1][1] += clock() - frame[0]

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def end_request(self) -> dict:
        """Counters of the request just finished, as
        ``{key: [calls, self_ns, raised, distinct_args]}``; resets them."""
        out = {}
        for key, (calls, self_ns, raised) in self.counts.items():
            out[key] = [calls, self_ns, raised, len(self.args[key]) if key in DISTINCT else 0]
        self.counts.clear()
        for seen in self.args.values():
            seen.clear()
        self.request += 1
        return out
