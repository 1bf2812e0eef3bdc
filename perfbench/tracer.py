"""Spans around lotkarank's public functions, installed from outside the package.

Each wrapped call appends one span [name, start, end, parent, op] to an
in-memory list; the list is written out when the traced process ends.
Installing re-binds every module-level alias of a wrapped function
(cli, evaluation and rerank import search/rerank/entity_frequencies/
tokenize by name), wraps InvertedIndex.save/load on the class, and
records a module or function that no longer exists as an absent layer.
"""
import importlib
import os
import sys
from time import perf_counter

# layer (module name) -> public functions wrapped in it
FUNCTIONS = {
    "cli": ("main",),
    "corpus": ("load_corpus", "tokenize"),
    "index": ("build_index", "search"),
    "_kernel": ("add_scaled",),
    "informetrics": ("entity_frequencies", "fit_power_law", "export_series_csv"),
    "rerank": ("rerank", "write_run_file"),
    "evaluation": ("load_topics", "load_qrels", "run_evaluation", "write_report"),
}
METHODS = {("index", "InvertedIndex"): ("save", "load")}


def _count_corpus(tracer, args, kwargs, result, span):
    tracer.calls.append((tracer.op, "corpus", len(result)))


def _count_search(tracer, args, kwargs, result, span):
    query = kwargs.get("query", args[0] if args else None)
    tracer.calls.append((tracer.op, "search", query, result.query_id, result.set_size))


def _count_entities(tracer, args, kwargs, result, span):
    rs = kwargs.get("rs", args[0] if args else None)
    tracer.calls.append((tracer.op, "entities", result.field.value, rs.query_id,
                         len(result.counts), result.covered_docs))


def _name_rerank(tracer, args, kwargs, result, span):
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    span[0] = f"rerank.{config.mode.value}"
    field = config.field.value if config.field is not None else None
    tracer.calls.append((tracer.op, "rerank", config.mode.value, field, config.k,
                         config.missing_policy.value, result.query_id, result.dropped))


def _count_run_file(tracer, args, kwargs, result, span):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tracer.calls.append((tracer.op, "run_file", os.path.getsize(path)))


AFTER = {
    "corpus.load_corpus": _count_corpus,
    "index.search": _count_search,
    "informetrics.entity_frequencies": _count_entities,
    "rerank.rerank": _name_rerank,
    "rerank.write_run_file": _count_run_file,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or -1, op label]
        self.calls = []  # per-call facts the benchmark checks against its reference
        self.absent = set()
        self.op = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, after = self.spans, self._stack, AFTER.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                try:
                    after(self, args, kwargs, result, span)
                except (AttributeError, IndexError, KeyError, TypeError, OSError) as exc:
                    # the program's return shape changed: the count is lost, not the call
                    self.calls.append((self.op, "uncounted", name, type(exc).__name__))
            return result

        return traced

    def install(self):
        """Wrap every listed function and method; undo with uninstall()."""
        modules = {}
        for layer in FUNCTIONS:
            try:
                modules[layer] = importlib.import_module(f"lotkarank.{layer}")
            except ImportError:
                self.absent.add(layer)
        package = [m for n, m in list(sys.modules.items()) if n == "lotkarank" or n.startswith("lotkarank.")]
        for layer, names in FUNCTIONS.items():
            module = modules.get(layer)
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    self.absent.add(f"{layer}.{fname}")
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(modules.get(layer), cls_name, None)
            for mname in names:
                raw = cls.__dict__.get(mname) if cls is not None else None
                if raw is None:
                    self.absent.add(f"{layer}.{mname}")
                    continue
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self.wrap(f"{layer}.{mname}", raw.__func__))
                else:
                    wrapper = self.wrap(f"{layer}.{mname}", raw)
                setattr(cls, mname, wrapper)
                self._undo.append((cls, mname, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self):
        return {"spans": self.spans, "calls": self.calls, "absent": sorted(self.absent)}
