"""Outside-in span recorder for the passdown layers.

The recorder wraps the public functions of each layer module from the
benchmark's side; nothing under ``src/`` changes.  ``pipeline.py`` and
``cli.py`` bind names with ``from .x import f``, so a wrapper is installed
at every binding site: each module namespace that holds the function,
the class dictionary for methods, and every default argument that holds
it.  ``unpatched()`` names any other site (a module-level container, a
closure cell) still holding an original while installed; ``restore()``
puts the originals back.

Spanned calls record (name, start, end, parent span, op id) with
``time.perf_counter``; spans stay in memory until ``write()``.  Hot leaves
(small accessors called up to millions of times per operation) are only
counted, so their time lands in the caller's layer.  Self time of a layer
is the time during which one of its spans is the innermost open span.
"""

import functools
import inspect
import sys
import time

LAYERS = (
    "cli", "fixtures", "pipeline", "hierarchy", "resolution", "tracks",
    "complexes", "groups", "provenance", "stability", "trees",
)

# Methods are counted only, except these, whose calls are few and heavy.
SPANNED_METHODS = {
    "complexes.Complex2.is_simplicial",
    "complexes.CutpointTree.is_tree",
    "groups.GroupTable.mint",
    "groups.GroupTable.validate",
    "pipeline.RunReport.render",
    "provenance.TauFragment.check_consistency",
    "provenance.TauFragment.compose",
    "provenance.TauFragment.identity",
    "provenance.TauFragment.total_and_bijective",
    "stability.BipartiteBW.has_cycle",
    "stability.BipartiteBW.is_tree",
    "stability.RunView.compose",
    "stability.TriangleClass.subcomplex_of",
}

# Module-level functions that are hot leaves: counted only.
COUNTED_FUNCTIONS = {
    "resolution.smallest_id_choice",
    "stability.descends_to_pair",
}


# Derived counts taken from one call: function key -> (count, f(recorder, args, result)).
RESULT_COUNTS = {
    "fixtures.parse_fixtures": ("fixtures.lines", lambda rec, args, r: sum(rec.line_counts[p] for p in args[0])),
    "pipeline.run_pipeline": ("pipeline.levels", lambda rec, args, r: len(r.run.levels)),
    "tracks.tracks_from_resolution": ("tracks.tracks", lambda rec, args, r: len(r.tracks)),
    "tracks.essential_tracks": ("tracks.essential", lambda rec, args, r: len(r.tracks)),
    "stability.enumerate_simple_cones": ("stability.cones", lambda rec, args, r: len(r)),
    "stability.cone_criterion_check": ("stability.certified", lambda rec, args, r: int(r.certified)),
}


class Recorder:
    def __init__(self):
        from passdown.errors import LinkCapError, PassdownError

        self.error_type = PassdownError
        self.cap_error_type = LinkCapError
        self.line_counts = {}  # fixture path -> line count, for fixtures.lines
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.keep_spans = True
        self.op = -1
        self.calls = {}  # function key -> call count
        self.incl = {}  # spanned function key -> inclusive seconds
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counts = {}
        self._stack = []  # [span index, layer, child seconds]
        self._patches = []
        self._originals = {}  # id(original function) -> original, while installed
        self._wrappers = set()  # ids of the installed wrappers

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers ---------------------------------------------------------

    def _counted(self, fn, key):
        calls = self.calls
        calls.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, key, layer):
        rec = self
        calls, incl, self_s, stack, spans = self.calls, self.incl, self.self_s, self._stack, self.spans
        calls.setdefault(key, 0)
        incl.setdefault(key, 0.0)
        derived = RESULT_COUNTS.get(key)
        error_type, cap_error_type = self.error_type, self.cap_error_type
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            parent = stack[-1] if stack else None
            idx = -1
            if rec.keep_spans:
                idx = len(spans)
                spans.append(None)
            frame = [idx, layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                if parent is None or parent[1] != layer:
                    rec.errors[layer] += 1
                if key == "stability.enumerate_simple_cones" and isinstance(exc, cap_error_type):
                    rec.count("stability.cap_hits")
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                incl[key] += dur
                self_s[layer] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if idx >= 0:
                    spans[idx] = (key, t0, t1, parent[0] if parent is not None else -1, rec.op)
            if derived is not None:
                rec.count(derived[0], derived[1](rec, args, result))
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    @staticmethod
    def _walk():
        """One walk over the passdown modules.  Returns (modules, targets,
        functions): targets are (key, layer, owner, attribute, raw) for every
        public function and method of a layer module; functions are all
        functions defined in any passdown module, private ones and methods
        included, whose default arguments may hold a target."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "passdown" or n.startswith("passdown.")]
        targets, functions = [], []
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            public = layer in LAYERS
            for name, obj in sorted(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrap = public and not name.startswith("_")
                if inspect.isfunction(obj):
                    functions.append(obj)
                    if wrap:
                        targets.append((f"{layer}.{name}", layer, mod, name, obj))
                elif inspect.isclass(obj):
                    wrap = wrap and not issubclass(obj, BaseException)
                    for mname, raw in sorted(vars(obj).items()):
                        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                        if not inspect.isfunction(fn):
                            continue
                        functions.append(fn)
                        if wrap and not mname.startswith("_"):
                            targets.append((f"{layer}.{name}.{mname}", layer, obj, mname, raw))
        return modules, targets, functions

    def install(self):
        if self._patches:
            raise RuntimeError("recorder already installed")
        modules, targets, functions = self._walk()
        wrapped = {}  # id(original function) -> (original, wrapper)
        for key, layer, owner, attr, raw in targets:
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if key in COUNTED_FUNCTIONS or (inspect.isclass(owner) and key not in SPANNED_METHODS):
                wrapper = self._counted(fn, key)
            else:
                wrapper = self._spanned(fn, key, layer)
            wrapped[id(fn)] = (fn, wrapper)
            new = type(raw)(wrapper) if isinstance(raw, (staticmethod, classmethod)) else wrapper
            self._patch(owner, attr, raw, new)
        self._originals = {i: fn for i, (fn, _w) in wrapped.items()}
        self._wrappers = {id(w) for _fn, w in wrapped.values()}

        def swap(obj):
            hit = wrapped.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else obj

        # the other binding sites: `from .x import f` names and default arguments
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if swap(obj) is not obj:
                    self._patch(mod, name, obj, swap(obj))
        for fn in functions:
            defaults = fn.__defaults__
            if defaults and any(swap(d) is not d for d in defaults):
                self._patch(fn, "__defaults__", defaults, tuple(swap(d) for d in defaults))
        return self

    def unpatched(self):
        """Binding sites that still hold an unwrapped original while the
        recorder is installed: module-level containers (one level deep),
        default arguments and closure cells.  Calls through any of them
        would escape the spans, so a traced run must find none."""
        def original(obj):
            return id(obj) in self._originals and self._originals[id(obj)] is obj

        def cells(fn):
            for cell in fn.__closure__ or ():
                try:
                    yield cell.cell_contents
                except ValueError:  # an empty cell
                    pass

        modules, _targets, functions = self._walk()
        sites = []
        for mod in modules:
            for name, obj in vars(mod).items():
                if name.startswith("__") or not isinstance(obj, (dict, list, tuple, set, frozenset)):
                    continue
                items = list(obj.items()) if isinstance(obj, dict) else [(None, v) for v in obj]
                if any(original(k) or original(v) for k, v in items):
                    sites.append(f"{mod.__name__}.{name}")
        for fn in functions:
            if id(fn) in self._wrappers:
                continue
            if any(original(d) for d in fn.__defaults__ or ()):
                sites.append(f"{fn.__module__}.{fn.__qualname__} default argument")
            if any(original(c) for c in cells(fn)):
                sites.append(f"{fn.__module__}.{fn.__qualname__} closure")
        return sites

    def _patch(self, owner, attr, old, new):
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def restore(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)
        self._originals, self._wrappers = {}, set()
        if self._stack:
            raise RuntimeError("restore() inside an open span")

    # -- results ----------------------------------------------------------

    def write(self, path):
        """Write the kept spans as tab-separated lines:
        index, op id, parent index, name, start, end (seconds)."""
        with open(path, "w") as fh:
            fh.write("index\top\tparent\tname\tstart\tend\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{op}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")
