"""Spans around the public functions of each ``matula`` module.

``install()`` replaces every public function a module binds (its own and
the ones it imported by name), every public ``PrimeOracle`` method and the
sieve kernels with a wrapper that records a span: the layer-qualified name,
the time it was open and the span that was open when it started (its
parent).  Spans are folded as they close into per-name totals (calls, total
and self time) and per-(parent, child) call counts, kept in memory and
written out once by ``dump()``.

Self time is a span's duration minus the time of the spans it directly
encloses.  Wrapping happens where each module binds a name, so for example
``codec.matula_number``, ``treetext.join`` and ``enumerator.join`` all
become spans even though they were imported by name.
"""

import importlib
import inspect
import json
import time

# Module -> layer.  The three kernel modules form one layer; errors does no
# work and is not wrapped.
LAYERS = {
    "matula.cli": "cli",
    "matula.codec": "codec",
    "matula.treetext": "treetext",
    "matula.trees": "trees",
    "matula.enumerator": "enumerator",
    "matula.extremal": "extremal",
    "matula.primes": "primes",
    "matula._kernel": "kernel",
    "matula._sieve_py": "kernel",
    "matula._sieve_cy": "kernel",
}

_NTH = "primes.nth_prime"
_JOIN = "trees.join"
_DECODE = "codec.decode"
_FACTORIZE = "primes.factorize"


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.edges = {}  # (parent, child) -> calls
        self.counters = {}
        self._stack = []  # frames: [name, child_s, encloses_nth_prime]
        self._open_decodes = 0

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _enter(self, name, new_call=True):
        if new_call:
            parent = self._stack[-1][0] if self._stack else None
            self.edges[(parent, name)] = self.edges.get((parent, name), 0) + 1
        if name == _DECODE:
            self._open_decodes += 1
        elif name == _FACTORIZE and self._open_decodes:
            self.count("codec.decode.nested_factorize")
        frame = [name, 0.0, False]
        self._stack.append(frame)
        return frame

    def _leave(self, frame, elapsed, new_call):
        self._stack.pop()
        name = frame[0]
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += new_call
        st[1] += elapsed
        st[2] += elapsed - frame[1]
        if name == _DECODE:
            self._open_decodes -= 1
        elif name == _JOIN and frame[2]:
            self.count("trees.join.exact_fallbacks")
        if self._stack:
            parent = self._stack[-1]
            parent[1] += elapsed
            if frame[2] or name == _NTH:
                parent[2] = True

    def wrap(self, fn, name, on_result=None):
        tracer = self
        perf = time.perf_counter

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                first = True
                yielded = 0
                try:
                    while True:
                        frame = tracer._enter(name, first)
                        t0 = perf()
                        try:
                            item = next(gen)
                        except StopIteration:
                            tracer._leave(frame, perf() - t0, first)
                            return
                        except BaseException:
                            tracer._leave(frame, perf() - t0, first)
                            raise
                        tracer._leave(frame, perf() - t0, first)
                        first = False
                        yielded += 1
                        yield item
                finally:
                    if on_result is not None:
                        on_result(tracer, args, yielded)

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame, perf() - t0, 1)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path):
        data = {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in self.stats.items()},
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def _segment_hook(tracer, args, primes):
    lo, hi = args[0], args[1]
    tracer.count("kernel.values", hi - lo)
    tracer.count("kernel.primes_out", len(primes))


def _bootstrap_hook(tracer, args, primes):
    tracer.count("kernel.values", args[0] + 1)
    tracer.count("kernel.primes_out", len(primes))


def _trees_hook(tracer, args, yielded):
    tracer.count("enumerator.enumerate_trees.trees", yielded)


def _report_hook(prefix):
    def hook(tracer, args, report):
        tracer.count(f"{prefix}.examined", report.examined)
        tracer.count(f"{prefix}.pruned", report.pruned)

    return hook


_HOOKS = {
    "kernel.sieve_segment": _segment_hook,
    "kernel.simple_sieve": _bootstrap_hook,
    "enumerator.enumerate_trees": _trees_hook,
    "extremal.min_binary_bnb": _report_hook("extremal.min_binary_bnb"),
    "extremal.exhaustive_max": _report_hook("extremal.exhaustive_max"),
}


def _span_name(fn):
    layer = LAYERS.get(getattr(fn, "__module__", None))
    if layer is None:
        return None
    return f"{layer}.{fn.__name__}"


def _is_function(obj):
    return inspect.isfunction(obj) or inspect.isbuiltin(obj) or (
        callable(obj) and type(obj).__name__ == "cython_function_or_method"
    )


def install(tracer):
    """Wrap every public function binding in the package's modules."""
    # id(original) -> (original, wrapper): one span name per function, and
    # the original is kept alive so its id cannot be reused.
    wrappers = {}

    def wrapped(fn):
        key = id(fn)
        if key not in wrappers:
            name = _span_name(fn)
            if name is None:
                return None
            wrappers[key] = (fn, tracer.wrap(fn, name, _HOOKS.get(name)))
        return wrappers[key][1]

    modules = []
    for modname in ("matula", *LAYERS):
        try:
            modules.append(importlib.import_module(modname))
        except ImportError:  # the compiled kernel is optional
            continue
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not _is_function(obj):
                continue
            w = wrapped(obj)
            if w is not None:
                setattr(mod, attr, w)

    from matula.primes import PrimeOracle

    for attr, obj in list(vars(PrimeOracle).items()):
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        setattr(PrimeOracle, attr, tracer.wrap(obj, f"primes.{attr}"))
    return tracer
