"""Spans around the public functions of each acmbundles module, installed
from outside the program.

Every public function is replaced at every binding site: the module that
defines it, the package namespace, and each module that imported it by
name (``cli`` holds its own references to ``twist`` and ``chi_bundle``,
``constraints`` to ``require_integer``).  A span records its id, its
parent's id, the id of the query it belongs to, the function name and its
start and end.  Self time is a span's duration minus the spans directly
under it.  Spans stay in memory (up to a cap, beyond which only the
aggregates are kept) and are written out once, at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter_ns

MODULES = ("chern", "constraints", "extensions", "cli", "selfcheck")
MARK = "__bench_span__"
MAX_SPANS = 50_000


def public_functions(package: str = "acmbundles") -> dict:
    """{function object: "module.name"} for each module's public functions."""
    found = {}
    for short in MODULES:
        module = sys.modules[f"{package}.{short}"]
        names = getattr(module, "__all__", None) or [n for n in vars(module)
                                                      if not n.startswith("_")]
        for name in names:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found[fn] = f"{short}.{name}"
    return found


def binding_sites(targets, package: str = "acmbundles"):
    """Yield (module, attribute, function) for every loaded package module
    whose namespace refers to one of ``targets``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == package
                                  or module_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in targets:
                yield module, attr, value


def leftover_wrappers(package: str = "acmbundles") -> list[str]:
    """Names in the package that still hold a wrapper."""
    return [f"{name}.{attr}" for name, module in list(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
            for attr, value in list(vars(module).items()) if hasattr(value, MARK)]


class Tracer:
    def __init__(self):
        self.stack = []        # frames: [span id, name, start ns, child ns]
        self.next_id = 1
        self.query_id = 0
        self.spans = []        # (id, parent id, query id, name, start ns, end ns)
        self.dropped = 0
        self.stats = {}        # name -> [calls, total ns, self ns]
        self.counts = {"rows": 0, "entries": 0, "catalog_lines": 0,
                       "decompose_hits": 0, "decompose_pairs": 0, "rebuilds": 0}
        self._installed = []

    # ---------------------------------------------------------- spans
    def _enter(self, name):
        frame = [self.next_id, name, 0, 0]
        self.next_id += 1
        self.stack.append(frame)
        frame[2] = perf_counter_ns()
        return frame

    def _exit(self, frame):
        end = perf_counter_ns()
        stack = self.stack
        stack.pop()
        duration = end - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        stat = self.stats.get(frame[1])
        if stat is None:
            stat = self.stats[frame[1]] = [0, 0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[3]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[0], parent[0] if parent else 0, self.query_id,
                               frame[1], frame[2], end))
        else:
            self.dropped += 1
        return parent

    def begin_query(self):
        self.query_id = self.next_id
        self._enter("query")

    def end_query(self):
        self._exit(self.stack[-1])

    def _observe(self, name, result, parent):
        counts = self.counts
        if name == "constraints.enumerate_acm_r4":
            counts["rows"] += len(result)
            counts["entries"] += sum(len(row.entries) for row in result)
        elif name == "extensions.load_catalog":
            counts["catalog_lines"] += len(result.entries)
        elif name == "extensions.decompose":
            counts["decompose_hits"] += len(result)
        elif name == "extensions.extend_rank2" and parent is not None \
                and parent[1] == "extensions.decompose":
            # decompose tests each pair, then rebuilds each hit through the
            # private _make_witness: such a call evaluates no new pair
            if sys._getframe(2).f_code.co_name == "_make_witness":
                counts["rebuilds"] += 1
            else:
                counts["decompose_pairs"] += 1

    def wrap(self, name, fn):
        enter, leave, observe = self._enter, self._exit, self._observe

        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                parent = leave(frame)
            observe(name, result, parent)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------- install / remove
    def install(self):
        targets = public_functions()
        wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        for module, attr, fn in list(binding_sites(targets)):
            self._installed.append((module, attr, fn))
            setattr(module, attr, wrappers[fn])

    def remove(self):
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    # ----------------------------------------------------------- report
    def ms(self, name, index=1) -> float:
        return self.stats.get(name, (0, 0, 0))[index] / 1e6

    def calls(self, name) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def module_self_ms(self, module) -> float:
        return sum(stat[2] for name, stat in self.stats.items()
                   if name.startswith(module + ".")) / 1e6

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
