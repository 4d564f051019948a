"""Per-module counters and spans, recorded from outside the library.

`install()` wraps public functions and hot methods of the `effhom`
modules.  A wrapped function is replaced under every name that binds it
in an `effhom` module, because several modules import names from others
(`postnikov` binds `smith_normal_form` and `complex_homology`, `bar`
binds `basic_perturbation`, and so on).  High-frequency methods are only
counted; coarser calls are also timed as spans.  A span records its
name, start, end and the index of the enclosing span; nested calls of
the same name add to the call count but not to the summed time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# metric name -> (module, attribute) of a function timed as a span
SPANS = {
    "smith.snf": ("effhom.smith", "smith_normal_form"),
    "chains.homology": ("effhom.chains", "complex_homology"),
    "em.equivalence": ("effhom.em", "em_equivalence"),
    "reduction.cone_equipment": ("effhom.reduction", "cone_equipment"),
    "ez.product_equivalence": ("effhom.ez", "product_equivalence"),
    "bar.pullback_fibration": ("effhom.bar", "pullback_fibration"),
    "cli.parse": ("effhom.cli", "parse_document"),
}

# metric name -> (module, attribute) of a function that is only counted
CALLS = {
    "reduction.perturbation": ("effhom.reduction", "basic_perturbation"),
    "bar.twisted_division": ("effhom.bar", "twisted_division"),
}

# metric name -> (module, class, method) of a counted hot method; the
# flag says whether a memo hit is told apart from a miss
METHODS = {
    "simplicial.face": ("effhom.simplicial", "SimplicialSet", "face", None),
    "simplicial.canon": ("effhom.simplicial", "RawSSet", "canon", None),
    "simplicial.smap": ("effhom.simplicial", "SMap", "__call__", "_cache"),
    "chains.on_cell": ("effhom.chains", "ChainMap", "on_cell", "_cache"),
    "chains.diff_cell": ("effhom.chains", "CCx", "diff_cell", "_diff_cache"),
    "chains.basis": ("effhom.chains", "CCx", "basis", None),
    "abgroup.reduce": ("effhom.abgroup", "AbGroup", "reduce", None),
    "em.make_raw": ("effhom.em", "EMSpace", "make_raw", None),
    "reduction.reductions_built": ("effhom.reduction", "Reduction",
                                   "__init__", None),
}

MODULES = ["effhom.abgroup", "effhom.smith", "effhom.chains",
           "effhom.simplicial", "effhom.reduction", "effhom.ez", "effhom.em",
           "effhom.bar", "effhom.postnikov", "effhom.cli"]


class Tracer:
    """Counters, summed span times and the span list of one process."""

    def __init__(self):
        self.counts = Counter()
        self.seconds = Counter()
        self.snf_entries = 0
        self.snf_max_side = 0
        self.spans = []          # [name, start, end, parent index]
        self._open = []          # indices of the spans now running
        self._depth = Counter()

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name + "_calls"] += 1
            if name == "smith.snf":
                rows, cols = args[0].rows, args[0].cols
                self.snf_entries += rows * cols
                self.snf_max_side = max(self.snf_max_side, rows, cols)
            with self.timed_block(name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + "_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_memo(self, name, fn, cache_attr):
        counts = self.counts
        calls, hits = name + "_calls", name + "_hits"

        def wrapper(self, key, *args, **kwargs):
            counts[calls] += 1
            if key in getattr(self, cache_attr):
                counts[hits] += 1
            return fn(self, key, *args, **kwargs)

        return wrapper

    @contextmanager
    def timed_block(self, name):
        """Record a span; a span nested in one of the same name adds no time."""
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        self._depth[name] += 1
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()
            self._depth[name] -= 1
            if not self._depth[name]:
                self.seconds[name] += record[2] - record[1]


def _rebind(original, replacement):
    """Replace `original` under every name that binds it in effhom."""
    for modname in MODULES:
        module = sys.modules[modname]
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Tracer:
    """Import every effhom module and wrap the traced names; return the tracer."""
    for modname in MODULES:
        __import__(modname)
    tracer = Tracer()
    for name, (modname, attr) in SPANS.items():
        original = getattr(sys.modules[modname], attr)
        _rebind(original, tracer.span(name, original))
    for name, (modname, attr) in CALLS.items():
        original = getattr(sys.modules[modname], attr)
        _rebind(original, tracer.counted(name, original))
    for name, (modname, cls, meth, cache_attr) in METHODS.items():
        klass = getattr(sys.modules[modname], cls)
        original = getattr(klass, meth)
        if cache_attr is None:
            setattr(klass, meth, tracer.counted(name, original))
        else:
            setattr(klass, meth,
                    tracer.counted_memo(name, original, cache_attr))
    _stage_by_stage(tracer)
    return tracer


def _stage_by_stage(tracer: Tracer):
    """Rebind `build_tower` to one that extends the tower a stage per call.

    Each stage i >= 2 becomes its own `build_tower(Y, i)` call, timed as
    the span `postnikov.stage<i>`; stage 1 is built with stage 2.  The
    degree cap of the final call is passed to every call, so the stages
    built are the ones a single call would build.
    """
    postnikov = sys.modules["effhom.postnikov"]
    original = postnikov.build_tower

    def build_tower(Y, k, degree_cap=None):
        cap = degree_cap if degree_cap is not None else k + 2
        tower = None
        for i in range(2, k + 1):
            with tracer.timed_block(f"postnikov.stage{i}"):
                tower = original(Y, i, degree_cap=cap)
        return tower

    _rebind(original, build_tower)
