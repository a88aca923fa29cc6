"""Span tracing of fairkit's public API from outside the package.

``Tracer.install`` wraps every public function, and every public method of
every public class, named in each module's ``__all__`` (the CLI module has
none, so its public functions are taken).  A wrapped function is rebound in
every fairkit module that imported it by name, so calls between modules
(``ferm.partition``, ``metrics.wasserstein``) are caught too.  ``uninstall``
puts the originals back.  Spans stay in memory until the caller writes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "dataset", "metrics", "transport", "ferm", "causal", "multitask")


def _rows_read(tracer, args, kwargs, result):
    tracer.count("dataset.rows_read", result.n_records)


def _rows_written(tracer, args, kwargs, result):
    tracer.count("dataset.rows_written", args[0].n_records)


def _constraint_mb(tracer, args, kwargs, result):
    tracer.peak("ferm.constraint_mb", result.cell_weights.nbytes / 2**20)


def _alt_iters(tracer, args, kwargs, result):
    # one initial objective, then two entries (B and A half-steps) per alternation
    tracer.count("multitask.alt_iters", (len(result.objective_history) - 1) // 2)


# Work counts read off results, keyed by span name.
RESULT_HOOKS = {
    "dataset.load_csv": _rows_read,
    "dataset.to_csv": _rows_written,
    "ferm.build_constraints": _constraint_mb,
    "multitask.train_representation": _alt_iters,
}


class Tracer:
    """In-memory spans ``[name, start, end, parent, job, command]``.

    ``parent`` is the index of the enclosing span, or -1, and ``job`` the
    traced job's index in the run record.  The caller keeps ``command`` set
    to the CLI command running.  The tracer assumes one thread, which is
    how the CLI runs.
    """

    def __init__(self, job: int):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.job = job
        self.command = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, name: str, func):
        hook = RESULT_HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, self.command]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"fairkit.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None) or [
                n for n, v in vars(mod).items()
                if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == mod.__name__
            ]
            for name in names:
                obj = getattr(mod, name)
                if inspect.isfunction(obj):
                    traced = self.wrap(f"{layer}.{name}", obj)
                    for other in modules.values():
                        if vars(other).get(name) is obj:
                            self._replace(other, name, traced)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(f"{layer}.{name}", obj)

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._replace(cls, attr, type(raw)(self.wrap(f"{prefix}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                self._replace(cls, attr, self.wrap(f"{prefix}.{attr}", raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per-span-name self time: duration minus the time of direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, *_) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-span-name inclusive time and call count."""
        time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, *_ in self.spans:
            time[name] += end - start
            calls[name] += 1
        return dict(time), dict(calls)
