"""In-memory span recorder that wraps `sgaedit` functions from outside.

`Tracer.install()` replaces every public function of the traced modules
(and `tape.GradTape.backward`) with a wrapper that records one span per
call: id, name, start, end, parent span id and request id. The wrapper is
also bound under every other module-level name that aliased the original
(`from .quantizer import quantize` in `cli`, for example), so each call
path the program takes is seen. Nothing in the package itself changes.

While `active` is false the wrappers only forward the call. Spans stay in
memory until `write()`. `summarize()` turns them into per-name calls,
total time and self time (duration minus the union of child spans).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from sgaedit import attention, compositing, evalbench, images, model, quantizer, sampler, sga
from sgaedit import tape as T

TRACED_MODULES = (sampler, model, sga, attention, T, evalbench, compositing, quantizer, images)
CAPTURED = ("sampler.guide_and_plan",)  # calls whose arguments and result are kept


def _score_entries(arguments, result):
    return {"score_entries": T.value_of(arguments["q"]).shape[0] * T.value_of(arguments["k"]).shape[0]}


def _decoder_rows(arguments, result):
    return {"rows": len(arguments["prev_tokens"])}


def _mask_entries(arguments, result):
    return {"entries": int(np.asarray(result).size)}


def _kernel_flops(arguments, result):
    return {"score_flops": int(result.score_flops)}


def _train_steps(arguments, result):
    return {"steps": int(arguments["steps"])}


def _taped(arguments, result):
    return {"taped": int(isinstance(result, T.Tensor))}


# extra per-call counts, keyed by span name
COUNTERS = {
    "attention.dense_attention": _score_entries,
    "model.decoder_forward": _decoder_rows,
    "sga.build_sparse_mask": _mask_entries,
    "sga.sparse_attention": _kernel_flops,
    "evalbench.train": _train_steps,
    **{f"tape.{op}": _taped for op in T.DIFFERENTIABLE_OPS},
}


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []  # (id, name, start, end, parent, request, counts or None)
        self.captured = {}  # name -> (bound arguments, result) of the last call
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = []
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for module in TRACED_MODULES:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped[id(fn)] = self._wrap(fn, name, name in CAPTURED)
        backward = T.GradTape.backward
        self._patch(T.GradTape, "backward", backward, self._wrap(backward, "tape.GradTape.backward", False))
        # rebind every module-level alias of a wrapped function
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "sgaedit" or mod_name.startswith("sgaedit."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped:
                        self._patch(module, attr, value, wrapped[id(value)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, capture: bool):
        tracer = self
        counter = COUNTERS.get(name)
        # the tape ops' counter reads only the result
        signature = inspect.signature(fn) if capture or (counter and counter is not _taped) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # a pool thread's first span hangs under the span that is open
            # on the thread which started the request
            parent = stack[-1] if stack else (tracer._root_stack[-1] if tracer._root_stack else None)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            arguments = signature.bind(*args, **kwargs).arguments if signature is not None else None
            counts = counter(arguments, result) if counter is not None else None
            tracer.spans.append((sid, name, start, end, parent, tracer.request, counts))
            if capture:
                tracer.captured[name] = (arguments, result)
            return result

        return wrapper

    # -- requests ---------------------------------------------------------

    @contextmanager
    def request_span(self, name: str, request: int):
        """Trace one benchmark operation as the root span of its request."""
        self.request = request
        self._root_stack = self._stack()
        sid = next(self._ids)
        self._root_stack.append(sid)
        self.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.active = False
            self._root_stack.pop()
            self.spans.append((sid, name, start, end, None, request, None))

    # -- analysis ---------------------------------------------------------

    def summarize(self, within: str = None) -> dict:
        """Per span name: calls, total and self seconds, and summed counts.

        With `within`, only spans nested under a span of that name count.
        """
        children = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        keep = self._nested_under(within) if within else None
        out = defaultdict(lambda: defaultdict(float))
        for sid, name, start, end, _, _, counts in self.spans:
            if keep is not None and sid not in keep:
                continue
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered(children.get(sid, ()), start, end)
            for key, value in (counts or {}).items():
                row[key] += value
        return out

    def root_coverage(self) -> float:
        """Share of the root spans' wall time that their child spans cover."""
        roots = {sid: (start, end) for sid, _, start, end, parent, _, _ in self.spans if parent is None}
        children = defaultdict(list)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent in roots:
                children[parent].append((start, end))
        total = sum(end - start for start, end in roots.values())
        inside = sum(covered(children[sid], start, end) for sid, (start, end) in roots.items())
        return inside / total if total else 0.0

    def _nested_under(self, name: str) -> set:
        parent_of = {sid: parent for sid, _, _, _, parent, _, _ in self.spans}
        name_of = {sid: n for sid, n, _, _, _, _, _ in self.spans}
        inside = set()
        for sid in parent_of:
            p = parent_of[sid]
            while p is not None:
                if name_of.get(p) == name:
                    inside.add(sid)
                    break
                p = parent_of.get(p)
        return inside

    def write(self, path, env: dict) -> None:
        origin = min((s[2] for s in self.spans), default=0.0)
        rows = [
            [sid, name, round(start - origin, 7), round(end - origin, 7), parent, req, counts]
            for sid, name, start, end, parent, req, counts in self.spans
        ]
        fields = ["id", "name", "start", "end", "parent", "request", "counts"]
        with open(path, "w") as fh:
            json.dump({"env": env, "fields": fields, "spans": rows}, fh)


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
