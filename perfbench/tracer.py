"""Per-layer tracing of partialpi from outside the package.

``Tracer.install()`` replaces every public function of the traced modules by
a timing wrapper, and rebinds every other module-level name that holds the
same function object: ``theorems`` keeps its own bindings of ``frattini``,
``sylow`` and others (``from .structure import ...``), ``embedding`` one of
``all_subgroups``, ``cli`` one of ``run_corpus``. Wrapping only the defining
module would miss those calls. ``_kernels`` functions are looked up as module
attributes at call time, so rebinding the attribute is enough there.

Each wrapped call records a span (name, start, end, parent, request) in
compact arrays kept in memory; ``report()`` derives inclusive time per
function and self time per layer from them, and ``write_spans()`` dumps them
as gzipped JSON. Exceptions that leave a layer are counted per layer.

Two memo counters are kept from outside, by looking into the group's cache
dict before the call: lattice builds (``structure.all_subgroups`` on a group
without a cached lattice) and normal-subgroup builds
(``chiefs.normal_subgroups`` without cached normals), each also counted by
distinct element set.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import inspect
import json
import time
from array import array

import numpy as np

# Layers in dependency order; each is a module of the ``partialpi`` package.
LAYERS = ("_kernels", "perms", "groups", "groupfile", "chiefs", "structure",
          "embedding", "modrep", "theorems", "corpus", "cli")
KERNELS = ("closure_idx", "product_mask", "normalizer_mask",
           "centralizer_mask", "class_min_rep", "spin_basis")
# function key -> (cache key that marks a finished build, counter prefix)
MEMO_PROBES = {
    "structure.all_subgroups": ("lattice", "structure.lattice"),
    "chiefs.normal_subgroups": ("normals", "chiefs.normal_subgroups"),
}
REQUEST = "bench.request"


def _public_functions(module, layer):
    if layer == "_kernels":
        return {name: getattr(module, name) for name in KERNELS}
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def _element_set_key(G) -> bytes:
    return hashlib.blake2b(
        G.degree.to_bytes(4, "little") + G.element_array.tobytes(),
        digest_size=16).digest()


class Tracer:
    """Span recorder; ``active`` switches recording without unwrapping."""

    def __init__(self):
        self.active = False
        self.names: list = []          # span name id -> "layer.function"
        self.layer_of: list = []       # span name id -> layer
        self.calls: list = []          # span name id -> calls
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_outer = array("b")   # 0 when nested in a call of itself
        self.depth: list = []          # span name id -> open calls
        self.stack: list = []
        self.requests: list = []       # request id -> (group, family)
        self.request = -1
        self.raised: dict = {}
        self.memo_builds: dict = {}
        self.memo_sets: dict = {}
        self._restore: list = []
        self.t0 = time.perf_counter()
        self._name_id(REQUEST, "bench")

    # -- installation ----------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.depth.append(0)
        return len(self.names) - 1

    def install(self):
        """Wrap every public function of every layer, and every alias."""
        modules = {layer: importlib.import_module(f"partialpi.{layer}")
                   for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for name, fn in sorted(_public_functions(module, layer).items()):
                key = f"{layer}.{name}"
                wrapped[id(fn)] = self._wrap(fn, self._name_id(key, layer),
                                             MEMO_PROBES.get(key))
        package = importlib.import_module("partialpi")
        for module in [package, *modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped and callable(obj):
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapped[id(obj)])
        self.t0 = time.perf_counter()

    def uninstall(self):
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()
        self.active = False

    def _wrap(self, fn, nid: int, memo):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, nid)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            miss = memo is not None and memo[0] not in args[0]._cache
            self.calls[nid] += 1
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._count_raise(nid, self.span_parent[sid])
                raise
            finally:
                self._close(sid, nid)
            if miss:
                self._count_build(memo[1], args[0])
            return result

        return traced

    def _wrap_generator(self, fn, nid: int):
        """One call, one span per resumption of the generator."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.active:
                self.calls[nid] += 1
            inner = fn(*args, **kwargs)
            while True:
                sid = self._open(nid) if self.active else None
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except Exception:
                    if sid is not None:
                        self._count_raise(nid, self.span_parent[sid])
                    raise
                finally:
                    if sid is not None:
                        self._close(sid, nid)
                yield item

        return traced

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_request.append(self.request)
        self.span_outer.append(self.depth[nid] == 0)
        self.span_end.append(0.0)
        self.stack.append(sid)
        self.depth[nid] += 1
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, nid: int):
        self.span_end[sid] = time.perf_counter()
        self.depth[nid] -= 1
        self.stack.pop()

    def _count_raise(self, nid: int, parent: int):
        layer = self.layer_of[nid]
        if parent < 0 or self.layer_of[self.span_name[parent]] != layer:
            self.raised[layer] = self.raised.get(layer, 0) + 1

    def _count_build(self, prefix: str, G):
        self.memo_builds[prefix] = self.memo_builds.get(prefix, 0) + 1
        self.memo_sets.setdefault(prefix, set()).add(_element_set_key(G))

    # -- requests --------------------------------------------------------

    def begin_request(self, group: str, family: str) -> int:
        """Open a request span; spans until ``end_request`` share its id."""
        self.requests.append((group, family))
        self.request = len(self.requests) - 1
        self.calls[0] += 1
        return self._open(0)

    def end_request(self, sid: int):
        self._close(sid, 0)
        self.request = -1

    # -- results ---------------------------------------------------------

    def report(self) -> dict:
        """Per-function calls and inclusive seconds, per-layer self seconds
        and raises, memo counters, and per-group / per-family seconds."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        outer = np.frombuffer(self.span_outer, dtype=np.int8).astype(bool)
        n_names = len(self.names)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        own = dur - covered
        inclusive = np.bincount(name[outer], weights=dur[outer],
                                minlength=n_names)
        layers = sorted(set(self.layer_of), key=self.layer_of.index)
        layer_index = np.array([layers.index(l) for l in self.layer_of])
        self_s = np.bincount(layer_index[name], weights=own,
                             minlength=len(layers))
        out = {"spans": len(dur), "functions": {},
               "layers": {}, "memo": {}, "per_group_s": {},
               "per_family_s": {}}
        for nid, key in enumerate(self.names):
            out["functions"][key] = {"calls": self.calls[nid],
                                     "s": float(inclusive[nid])}
        for i, layer in enumerate(layers):
            out["layers"][layer] = {"self_s": float(self_s[i]),
                                    "raised": self.raised.get(layer, 0)}
        for prefix in sorted({p for _, p in MEMO_PROBES.values()}):
            out["memo"][prefix] = {
                "builds": self.memo_builds.get(prefix, 0),
                "element_sets": len(self.memo_sets.get(prefix, ()))}
        roots = np.flatnonzero(name == 0)
        request = np.frombuffer(self.span_request, dtype=np.int32)
        for sid in roots:
            group, family = self.requests[request[sid]]
            for table, label in ((out["per_group_s"], group),
                                 (out["per_family_s"], family)):
                table[label] = table.get(label, 0.0) + float(dur[sid])
        return out

    def write_spans(self, path):
        """All spans as gzipped JSON, times in seconds from ``install``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write('{"names": %s, "requests": %s, "columns": '
                     '["name", "start", "end", "parent", "request"], '
                     '"spans": [' % (json.dumps(self.names),
                                     json.dumps(self.requests)))
            t0 = self.t0
            rows = zip(self.span_name, self.span_start, self.span_end,
                       self.span_parent, self.span_request)
            for i, (n, s, e, p, r) in enumerate(rows):
                fh.write(f'{"," if i else ""}[{n},{s - t0!r},{e - t0!r},'
                         f'{p},{r}]\n')
            fh.write("]}\n")
