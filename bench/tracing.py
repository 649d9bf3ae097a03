"""Per-layer tracing of l1gram from outside the package.

``Tracer.install`` wraps every public function defined in each layer module
of ``l1gram`` and rebinds the wrapper in every ``l1gram`` module that holds
the original (``from .x import f`` copies the name), plus the methods
``Rng.u64``, ``Rng.child``, ``Rng.subset`` and ``GramMatrix.__init__``.
Each call records one span ``(id, parent, name, start, end, failed)`` in
memory; a few functions also record counts computed from their arguments
and return value.  ``Tracer.restore`` puts every original back.

Spans nest through a single call stack, so calls must come from one thread;
the benchmark runs the package serially (``L1GRAM_THREADS`` unset).
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

PACKAGE = "l1gram"
LAYERS = ("rng", "linalg", "decompose", "bounds", "randcert", "experiments",
          "matio", "cli")

# (module, class, method); a wrapped __init__ is named after its class.
METHODS = (("rng", "Rng", "u64"), ("rng", "Rng", "child"),
           ("rng", "Rng", "subset"), ("linalg", "GramMatrix", "__init__"))

STATS = ("calls", "busy_s", "self_s", "failed")


def rho1_systems(n: int) -> int:
    """Stationarity systems rho1_exact prices: sum_{k>=2} C(n,k) 2^(k-1)."""
    return sum(math.comb(n, k) << (k - 1) for k in range(2, n + 1))


def _dim(matrix) -> int:
    return int(getattr(matrix, "n", None) or len(matrix))


def _count_rho1_exact(args, result):
    return {"systems": rho1_systems(_dim(args["T"]))}


def _count_restricted_norm(args, result):
    n = _dim(args["W"])
    exhaustive = result.mode == "exhaustive"
    subsets = math.comb(n, result.k) if exhaustive else result.samples
    return {"subsets": subsets, "exhaustive_calls": int(exhaustive)}


def _count_dual(args, result):
    return {"inconclusive": int(result.method.endswith("(inconclusive)"))}


def _count_file_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _count_u64_words(args, result):
    return {"words": int(args["count"])}


# Counts derived from arguments and return values; each repeats exactly for
# the same inputs, whatever the timing.
COMPUTED = {
    "bounds.rho1_exact": _count_rho1_exact,
    "randcert.max_restricted_norm": _count_restricted_norm,
    "bounds.piplus_dual_upper": _count_dual,
    "matio.load_matrix": _count_file_bytes,
    "matio.save_decomposition": _count_file_bytes,
    "rng.Rng.u64": _count_u64_words,
}


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the union of its child spans."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _failed in spans:
        if parent:
            children[parent].append((start, end))
    return {sid: (end - start) - union_length(children.get(sid, ()), start, end)
            for sid, _parent, _name, start, end, _failed in spans}


def aggregate(spans, counts=None) -> dict:
    """name -> {calls, busy_s, self_s, failed, <computed counts>}.

    busy_s is inclusive: a span's duration, children included.
    """
    own = self_times(spans)
    out = defaultdict(lambda: dict.fromkeys(STATS, 0))
    for sid, _parent, name, start, end, failed in spans:
        st = out[name]
        st["calls"] += 1
        st["busy_s"] += end - start
        st["self_s"] += own[sid]
        st["failed"] += int(failed)
    for name, extra in (counts or {}).items():
        for key, value in extra.items():
            out[name][key] = out[name].get(key, 0) + value
    return {name: dict(st) for name, st in out.items()}


class Tracer:
    """Wraps the package's public functions; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._next_id = 1
        self._patched = []  # (owner, attribute, original)

    # -- installing and restoring -------------------------------------------
    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    @staticmethod
    def _targets():
        """original function -> span name, for every public layer function."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{layer}.{name}"
        return targets

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        __import__(f"{PACKAGE}.cli")  # cli is not imported by the package
        wrappers = {fn: self._wrap(name, fn) for fn, name in self._targets().items()}
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[meth]
            name = f"{layer}.{cls_name}" if meth == "__init__" \
                else f"{layer}.{cls_name}.{meth}"
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- recording ----------------------------------------------------------
    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counter = COMPUTED.get(name)
        signature = inspect.signature(fn) if counter else None
        counts = self.counts[name]
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, failed))
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    counts[key] += value
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans[:], {k: dict(v) for k, v in self.counts.items() if v}
        self.spans.clear()
        for v in self.counts.values():
            v.clear()
        return spans, counts


def write_spans(path, segments: dict) -> None:
    """Write {segment: spans} as gzip-compressed JSON, names interned."""
    names = sorted({s[2] for spans in segments.values() for s in spans})
    index = {n: i for i, n in enumerate(names)}
    payload = {
        "fields": ["id", "parent", "name", "start_s", "end_s", "failed"],
        "names": names,
        "segments": {seg: [[s[0], s[1], index[s[2]], s[3], s[4], int(s[5])]
                           for s in spans]
                     for seg, spans in segments.items()},
    }
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)
