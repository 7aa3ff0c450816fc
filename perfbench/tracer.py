"""Per-layer tracing of trace3, installed at runtime from outside the library.

`Tracer.install()` rebinds public functions and methods of the trace3 modules
to timing wrappers and `uninstall()` puts the originals back; nothing under
src/ is edited.  A module-level function is rebound wherever a trace3 module
holds it (e.g. `build_context` imported by name into traces, curves and
quadforms), so calls made inside the library are seen too.

Three kinds of target:

- spans: coarse boundaries.  Each call records a span (id, parent id,
  operation id, name, start, end) kept in memory until `write_spans`, and
  adds to the aggregate stats `calls`, `s` (inclusive) and `self_s`
  (inclusive minus the time of traced children).
- timed leaves: hot functions with aggregate `calls` and `s` only.
- counted leaves: hotter still; `calls` only.

Some targets also record an exact count computed from their arguments or
result: `anf.sweep.elements` and `anf.sweep.bytes_computed` (see
`_sweep_counts`), and `traces.trace_census.classes`.
"""

import json
import sys
from time import perf_counter

SPANS = (
    "anf.sweep", "anf.subfield_codes",
    "traces.trace_census", "traces.trace_class_count",
    "traces.check_trace_addition_identities",
    "traces.count_irreducibles_with_prefix",
    "quadforms.radical_report", "quadforms.bilinear_matrix",
    "curves.count_points_oracle", "curves.spectral_count",
    "curves.charpoly_count",
    "fourier.dft_extract", "fourier.reconstruct",
    "closedforms.count_all_zero_traces_spectral",
    "closedforms.irreducible_all_zero",
)
TIMED_LEAVES = (
    "gf2x.mulmod", "traces.trace_triple", "field.FieldContext.frobenius",
    "cyclotomic.Cyc.__mul__", "field.build_context",
)
COUNTED_LEAVES = (
    "field.FieldContext.mul", "field.FieldContext.sqr",
    "cyclotomic.Cyc.__init__",
)


def _sweep_counts(args, result):
    """Elements swept and array bytes the sweep touches, computed from m:
    a zero fill of the 2^m uint32 array, then m butterfly passes that each
    read the whole array and write half of it."""
    m = args[0]
    size = 4 << m
    return 1 << m, size + m * (size + size // 2)


# target -> (stat names, function of (args, result) giving their increments)
EXACT_COUNTS = {
    "anf.sweep": (("elements", "bytes_computed"), _sweep_counts),
    "traces.trace_census": (("classes",),
                            lambda args, result: (len(result.counts),)),
}


def metric_name(target: str) -> str:
    """`cyclotomic.Cyc.__mul__` -> `cyclotomic.Cyc.mul`."""
    return ".".join(part.strip("_") for part in target.split("."))


class Tracer:
    def __init__(self):
        self.stats = {}      # metric name -> {stat: value}
        self.spans = []      # (id, parent id, op id, name, start, end)
        self.op_id = None    # id of the benchmark operation in progress
        self._child = [0.0]  # time of traced children, one slot per open call
        self._open = [None]  # ids of the open spans
        self._next_id = 0
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self):
        import trace3  # noqa: F401  (loads every submodule)
        for kind, targets in (("span", SPANS), ("timed", TIMED_LEAVES),
                              ("counted", COUNTED_LEAVES)):
            for target in targets:
                self._patch(target, kind)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, target, kind):
        module_name, *path = target.split(".")
        owner = sys.modules["trace3." + module_name]
        for part in path[:-1]:
            owner = getattr(owner, part)
        attr = path[-1]
        original = getattr(owner, attr)
        name = metric_name(target)
        wrapper = getattr(self, "_" + kind)(name, original,
                                            EXACT_COUNTS.get(target))
        if isinstance(owner, type):
            owners = [owner]
        else:  # every trace3 module that holds this function
            owners = [mod for mod_name, mod in list(sys.modules.items())
                      if mod_name.startswith("trace3.")
                      and getattr(mod, attr, None) is original]
        for own in owners:
            self._restore.append((own, attr, original))
            setattr(own, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, exact):
        stat = self.stats.setdefault(name, {"calls": 0, "s": 0.0,
                                            "self_s": 0.0})
        keys, count = exact or ((), None)
        for key in keys:
            stat[key] = 0
        child, open_ids, spans = self._child, self._open, self.spans

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = open_ids[-1]
            open_ids.append(sid)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                open_ids.pop()
                stat["calls"] += 1
                stat["s"] += dt
                stat["self_s"] += dt - inner
                spans.append((sid, parent, self.op_id, name, t0, t1))
            if count:
                for key, value in zip(keys, count(args, result)):
                    stat[key] += value
            return result
        return wrapper

    def _timed(self, name, fn, exact):
        stat = self.stats.setdefault(name, {"calls": 0, "s": 0.0})
        child = self._child

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child.pop()
                child[-1] += dt
                stat["calls"] += 1
                stat["s"] += dt
        return wrapper

    def _counted(self, name, fn, exact):
        stat = self.stats.setdefault(name, {"calls": 0})

        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def operation(self, kind, op_id, run):
        """Run one benchmark operation as a root span named `op.<kind>`."""
        self.op_id = op_id
        return self._span("op." + kind, run, None)()

    # -- results -----------------------------------------------------------

    def reset(self):
        """Zero the aggregate stats (spans are kept)."""
        for stat in self.stats.values():
            for key in stat:
                stat[key] = 0

    def flat(self) -> dict:
        """Aggregate stats as {`<module>.<function>.<stat>`: value}; the
        benchmark's own `op.*` spans are left out."""
        return {f"{name}.{key}": value
                for name, stat in self.stats.items()
                if not name.startswith("op.")
                for key, value in stat.items()}

    def write_spans(self, path):
        with open(path, "w") as out:
            for sid, parent, op, name, start, end in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                      "name": name, "start": start,
                                      "end": end}) + "\n")
