"""Span tracing of the orthopt package from outside its source.

Every public function of the traced modules (and every public method of the
classes they define) is replaced by a timing wrapper *at each place the
package looks it up*: module globals that imported the name (``cli.run``,
``harness.stochastic_grad``, ``optimizers.orthogonalize`` ...), dictionaries
held in module globals (``harness._MATRIX_STEPS``), and class attributes
(``Rng.raw64``).  Wrapping only the defining module would miss every caller
that bound the name at import time.

``Problem.loss``/``grad``/``minibatch_grad`` are closures stored on a frozen
dataclass, so they are wrapped by having ``harness.make_problem`` return a
``dataclasses.replace``d problem.

Spans are aggregated in memory per name: call count, self time (duration
minus the time covered by child spans) and inclusive time (outermost
activations only, so recursion such as ``render_csv`` is not double counted).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

PACKAGE = "orthopt"
# The package's modules, which are the benchmark's layers.
LAYERS = ("cli", "harness", "optimizers", "orthogonalize", "linalg", "problems", "rng", "verification")


class Patcher:
    """Replaces a function wherever the package holds it, and undoes that."""

    def __init__(self) -> None:
        self._undo: list = []

    @staticmethod
    def _namespaces():
        for name, module in list(sys.modules.items()):
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
                yield vars(module)

    def replace_everywhere(self, mapping: dict) -> int:
        """Substitute ``mapping[id(f)]`` for each function ``f`` held by the package.

        Looks through module globals and one level of dict values.  Returns
        the number of bindings replaced.
        """
        count = 0
        for namespace in self._namespaces():
            for key, value in list(namespace.items()):
                if id(value) in mapping:
                    self._set_item(namespace, key, mapping[id(value)])
                    count += 1
                elif isinstance(value, dict) and not key.startswith("__"):
                    for inner_key, inner in list(value.items()):
                        if id(inner) in mapping:
                            self._set_item(value, inner_key, mapping[id(inner)])
                            count += 1
        return count

    def set_attr(self, owner, name: str, value) -> None:
        self._undo.append(("attr", owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _set_item(self, container: dict, key, value) -> None:
        self._undo.append(("item", container, key, container[key]))
        container[key] = value

    def restore(self) -> None:
        while self._undo:
            kind, owner, key, original = self._undo.pop()
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original


class Tracer:
    """Aggregating span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, inclusive_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``;
        ``after(args, result)`` runs on successful return, outside the span.
        """
        stack, stats, depth = self._stack, self.stats, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[span] = depth.get(span, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                level = depth[span] - 1
                depth[span] = level
                rec = stats.get(span)
                if rec is None:
                    rec = stats[span] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed - frame[0]
                if level == 0:
                    rec[2] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def install(self, patcher: Patcher) -> None:
        """Wrap every public function and method of the layer modules."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        special = self._special_cases(modules)
        mapping = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    inner, span, after = special.get(value, (value, f"{layer}.{attr}", None))
                    mapping[id(value)] = self.wrap(span, inner, after)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            _, span, after = special.get(fn, (fn, f"{layer}.{meth}", None))
                            patcher.set_attr(value, meth, self.wrap(span, fn, after))
        patcher.replace_everywhere(mapping)

    def _special_cases(self, modules) -> dict:
        """Per-function (inner, span name, after-hook) overrides."""
        orth = modules["orthogonalize"]
        harness = modules["harness"]

        def orth_span(args, kwargs):
            cfg = args[1] if len(args) > 1 else kwargs.get("cfg", orth.EXACT)
            return "orthogonalize.exact" if cfg.method is orth.OrthMethod.EXACT else "orthogonalize.newton_schulz"

        def make_problem(config, _make=harness.make_problem):
            problem = _make(config)
            mb = problem.minibatch_grad
            return dataclasses.replace(
                problem,
                loss=self.wrap("problems.loss", problem.loss),
                grad=self.wrap("problems.grad", problem.grad),
                minibatch_grad=None if mb is None else self.wrap("problems.minibatch_grad", mb),
            )

        return {
            orth.orthogonalize: (orth.orthogonalize, orth_span, None),
            harness.make_problem: (make_problem, "harness.make_problem", None),
            harness.write_csv: (
                harness.write_csv,
                "harness.write_csv",
                lambda args, _: self.count("harness.write_csv.bytes", os.path.getsize(args[1])),
            ),
            modules["rng"].Rng.raw64: (
                modules["rng"].Rng.raw64,
                "rng.raw64",
                lambda args, result: self.count("rng.raw64.draws", len(result)),
            ),
        }

    def self_total(self) -> float:
        return sum(rec[1] for rec in self.stats.values())


class UnitProbe:
    """Times each ``harness.run`` call and keeps its status and step count.

    Installed on top of whatever is currently bound (the plain function or
    the tracer's wrapper), at every binding the package holds.
    """

    def __init__(self) -> None:
        self.records: list[tuple[float, str, int]] = []

    def install(self, patcher: Patcher) -> None:
        harness = importlib.import_module(f"{PACKAGE}.harness")
        current = harness.run
        records = self.records

        @functools.wraps(current)
        def timed_run(config):
            start = perf_counter()
            result = current(config)
            records.append((perf_counter() - start, result.status, result.steps_completed))
            return result

        patcher.replace_everywhere({id(current): timed_run})
