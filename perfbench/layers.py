"""Outside-in tracing of the package's layers.

Every public function of a traced module is replaced, in its defining
module, by a wrapper that opens a span for the call.  Copies bound by
`from .x import name` in other modules (and the package's re-exports)
are rebound to the same wrapper, so `counting.class3_upto` is charged to
`primes` like `primes.class3_upto` is.  Each clock interval is charged to
the innermost open span's layer, and time outside every span to `cli`,
so the self times of one op add up to its traced wall exactly.

The tracer is single-threaded: the benchmark runs every op with
`--threads 1`.  Functions of modules that are not layers are charged to
the layer that calls them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter
from dataclasses import dataclass, field

LAYERS = ("primes", "constants", "construct", "counting", "verify", "seqfile")
OUTSIDE = "cli"
ALL_LAYERS = LAYERS + (OUTSIDE,)

# Counters reported per layer, next to the self times.
COUNTERS = (
    "primes.calls", "primes.sieve_passes", "constants.calls",
    "constants.prime_passes", "counting.calls", "construct.calls",
    "construct.elements", "verify.calls", "verify.elements", "verify.triples",
    "seqfile.values",
)
MAXIMA = ("primes.max_limit", "primes.max_bytes", "counting.max_sieve_limit")


@dataclass
class Span:
    ident: int
    parent: int | None
    layer: str
    name: str
    parent_layer: str
    start: float
    end: float = 0.0


@dataclass
class OpStats:
    """Self time per layer, counters and maxima of one traced op."""

    wall_s: float = 0.0
    self_s: dict = field(default_factory=lambda: dict.fromkeys(ALL_LAYERS, 0.0))
    counts: Counter = field(default_factory=Counter)
    maxima: dict = field(default_factory=lambda: dict.fromkeys(MAXIMA, 0))

    def as_dict(self) -> dict:
        return {"wall_s": self.wall_s, "self_s": dict(self.self_s),
                "counts": {k: self.counts[k] for k in COUNTERS},
                "maxima": dict(self.maxima)}


class Tracer:
    """Span stack, self-time ledger and counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op: OpStats | None = None
        self._op_start = 0.0
        self._last = 0.0

    def current_layer(self) -> str:
        return self._stack[-1].layer if self._stack else OUTSIDE

    def _charge(self, now: float) -> None:
        self._op.self_s[self.current_layer()] += now - self._last
        self._last = now

    def begin_op(self) -> None:
        self._op = OpStats()
        self._op_start = self._last = self.clock()

    def end_op(self) -> OpStats:
        if self._stack:
            raise RuntimeError(f"op ended inside span {self._stack[-1].name}")
        now = self.clock()
        self._charge(now)
        op, self._op = self._op, None
        op.wall_s = now - self._op_start
        return op

    def enter(self, layer: str, name: str) -> Span:
        now = self.clock()
        if self._op is None:
            raise RuntimeError(f"{layer}.{name} called outside a traced op")
        self._charge(now)
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.ident if parent else None, layer,
                    name, parent.layer if parent else OUTSIDE, now - self._op_start)
        self.spans.append(span)
        self._stack.append(span)
        if span.parent_layer != layer:
            self._op.counts[f"{layer}.calls"] += 1
        return span

    def exit(self, span: Span) -> None:
        now = self.clock()
        self._charge(now)
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        span.end = now - self._op_start

    def count(self, key: str, n: int) -> None:
        self._op.counts[key] += n

    def raise_max(self, key: str, value: int) -> None:
        if value > self._op.maxima[key]:
            self._op.maxima[key] = value


def _limit_arg(args, kwargs):
    return args[0] if args else kwargs.get("limit", 0)


def _observe(tracer: Tracer, span: Span, args, kwargs, result) -> None:
    """Counters taken at the layer boundary once a call has returned."""
    layer, name, outer = span.layer, span.name, span.parent_layer != span.layer
    if layer == "primes":
        if name in ("primes_upto", "class3_upto"):
            if span.parent_layer == "counting":
                tracer.raise_max("counting.max_sieve_limit", _limit_arg(args, kwargs))
            if name == "primes_upto" and span.parent_layer == "constants":
                tracer.count("constants.prime_passes", 1)
        arrays = [result] if hasattr(result, "nbytes") else [
            getattr(result, a) for a in ("primes", "class3") if hasattr(result, a)]
        for arr in arrays:
            tracer.raise_max("primes.max_bytes", int(arr.nbytes))
    elif layer == "construct" and outer and isinstance(result, list):
        tracer.count("construct.elements", len(result))
    elif layer == "verify" and name == "check_property_p":
        tracer.count("verify.elements", len(args[0]))
        tracer.count("verify.triples", result.triples_checked)
    elif layer == "seqfile" and outer and isinstance(result, list):
        tracer.count("seqfile.values", len(result))


def make_wrapper(tracer: Tracer, layer: str, fn):
    """The traced stand-in for `fn`, a function of module `layer`."""
    name = fn.__name__
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            # only prime_segments is a generator: each call is one sieve pass
            if name == "prime_segments":
                tracer.count("primes.sieve_passes", 1)
                tracer.raise_max("primes.max_limit", _limit_arg(args, kwargs))
            it = fn(*args, **kwargs)
            while True:
                span = tracer.enter(layer, name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit(span)
                yield item
        traced_gen.__wrapped_layer__ = layer
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if layer == "seqfile" and name == "write_sequence" and args:
            args = (_CountingIter(tracer, args[0]),) + args[1:]
        span = tracer.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        _observe(tracer, span, args, kwargs, result)
        return result
    traced.__wrapped_layer__ = layer
    return traced


class _CountingIter:
    """Counts the values a sequence writer consumes."""

    def __init__(self, tracer: Tracer, values):
        self._tracer = tracer
        self._it = iter(values)

    def __iter__(self):
        return self

    def __next__(self):
        v = next(self._it)
        self._tracer.count("seqfile.values", 1)
        return v


def package_modules(package):
    """The package and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def layer_of(fn, package_name: str) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    prefix = package_name + "."
    if not mod.startswith(prefix):
        return None
    layer = mod[len(prefix):]
    return layer if layer in LAYERS else None


def function_bindings(package):
    """(module, attribute, function, layer) for every binding that must be
    traced: each public function in its defining layer module, and every
    copy of a layer function bound in another module of the package."""
    out = []
    for mod in package_modules(package):
        for attr, value in sorted(vars(mod).items()):
            if not inspect.isfunction(value):
                continue
            layer = layer_of(value, package.__name__)
            if layer is None:
                continue
            home = mod.__name__ == value.__module__
            if home and attr.startswith("_"):
                continue
            out.append((mod, attr, value, layer))
    return out


def _hidden_functions(value):
    """Functions held one level inside a module-level container or partial."""
    if isinstance(value, functools.partial):
        return [value.func]
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    return []


def unwrapped_bindings(package) -> list[str]:
    """Bindings of layer functions that are not traced wrappers, including
    ones a wrapper cannot reach: held in a module-level container or in a
    `functools.partial`."""
    out = [f"{mod.__name__}.{attr}" for mod, attr, fn, _ in function_bindings(package)
           if not hasattr(fn, "__wrapped_layer__")]
    for mod in package_modules(package):
        for attr, value in sorted(vars(mod).items()):
            for fn in _hidden_functions(value):
                if (inspect.isfunction(fn) and not hasattr(fn, "__wrapped_layer__")
                        and layer_of(fn, package.__name__) is not None):
                    out.append(f"{mod.__name__}.{attr}[{fn.__name__}]")
    return out


class Installation:
    """Wrap every layer binding of `package`; `remove` restores them."""

    def __init__(self, package, tracer: Tracer):
        self._saved = []
        wrappers: dict[int, object] = {}
        for mod, attr, fn, layer in function_bindings(package):
            if hasattr(fn, "__wrapped_layer__"):
                raise RuntimeError(f"{mod.__name__}.{attr} is already traced")
            wrapper = wrappers.get(id(fn))
            if wrapper is None:
                wrapper = wrappers[id(fn)] = make_wrapper(tracer, layer, fn)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrapper)
        missing = unwrapped_bindings(package)
        if missing:
            self.remove()
            raise RuntimeError(f"layer functions left untraced: {missing}")

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
