"""In-process tracing of the schottky_limits package from outside it.

`Tracer.install()` wraps every public function of the seven traced modules
and rebinds every reference the package holds to the original: module
globals (including names imported into other modules and the package
`__init__`), class attributes, dataclass field defaults, function default
arguments and click command callbacks. It then asks the garbage collector
for anything that still refers to an original and fails if one remains, so
a binding the installer does not know about cannot silently zero a metric.

Every wrapped call adds to per-function aggregates: calls, inclusive time
and self time (inclusive minus time in wrapped callees). Stage-level
functions (STAGES) also record a span with a parent link; leaf arithmetic
such as `compose`, `apply` and `reduce` is called tens of thousands of times
per job and only aggregates, which keeps the trace in memory and its
overhead bounded. Spans of one job share the job's id.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import inspect
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

PACKAGE = "schottky_limits"
MODULES = ("cli", "report", "render", "limits", "schottky", "freewords", "mobius")

#: Functions that record a span; every other wrapped function only aggregates.
STAGES = frozenset({
    "cli.main", "cli.certify", "cli.freeness", "cli.construct", "cli.intersect",
    "cli.report", "cli.render",
    "report.build_report", "report.certificate_dict", "report.report_verified",
    "report.dumps",
    "render.render_svg",
    "limits.qi_check", "limits.count_orbit_in_ball", "limits.limit_point_brackets",
    "limits.estimate_limit_point", "limits.radial_check",
    "limits.uniform_radial_check", "limits.enumerate_subgroup",
    "limits.intersect_subgroups", "limits.intersect_by_matrices",
    "schottky.default_generators", "schottky.verify_ping_pong",
    "freewords.verify_free_generation",
})


class TraceError(RuntimeError):
    """The tracer could not cover the package, or a metric would be silently zero."""


def _entry_bits(g) -> int:
    return max(max(v.numerator.bit_length(), v.denominator.bit_length())
               for v in (g.m11, g.m12, g.m21, g.m22))


class Tracer:
    def __init__(self) -> None:
        self._stack: List[list] = []  # frames: [name, child_time, span_id]
        self._next_span = 1
        self._originals: Dict[int, Tuple[str, Callable]] = {}
        self._wrappers: Dict[int, Callable] = {}
        self.job_id = 0
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.reset()

    # -- aggregates ---------------------------------------------------------

    def reset(self) -> None:
        """Start fresh aggregates (spans are kept for the whole run)."""
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.edges: Counter = Counter()  # (caller, callee) -> calls
        self.counts: Counter = Counter()
        self.maxima: Dict[str, int] = defaultdict(int)

    def _after(self, name: str, args, result) -> None:
        """Counters derived from arguments and results at the layer boundary."""
        if name == "mobius.compose":
            bits = _entry_bits(result)
            if bits > self.maxima["mobius.entry_bits"]:
                self.maxima["mobius.entry_bits"] = bits
        elif name == "freewords.theta":
            self.counts["freewords.theta.letters"] += len(result)
        elif name == "freewords.verify_free_generation":
            self.counts["freewords.words_checked"] += result.words_checked
            self.counts["freewords.pairs_checked"] += result.pairs_checked
        elif name == "limits.enumerate_subgroup":
            self.counts["limits.enumerate_subgroup.distinct"] += len(result)
        elif name == "schottky.word_to_element":
            self.counts["schottky.word_to_element.letters"] += len(args[0])

    # -- spans --------------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a root span of its own (the benchmark's job span)."""
        return self._wrap(name, fn, stage=True)(*args, **kwargs)

    def _wrap(self, name: str, fn: Callable, stage: bool = False) -> Callable:
        stack = self._stack
        is_stage = stage or name in STAGES
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # a generator runs inside its consumer's frames; count what it yields
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                for item in fn(*args, **kwargs):
                    tracer.counts[name + ".count"] += 1
                    yield item
            wrapper = gen_wrapper
        else:
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else None
                span_id = 0
                if is_stage:
                    span_id = tracer._next_span
                    tracer._next_span += 1
                frame = [name, 0.0, span_id]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    dt = t1 - t0
                    tracer.calls[name] += 1
                    tracer.total[name] += dt
                    tracer.self_time[name] += dt - frame[1]
                    if parent is not None:
                        parent[1] += dt
                        tracer.edges[(parent[0], name)] += 1
                    if is_stage:
                        parent_span = next((f[2] for f in reversed(stack) if f[2]), 0)
                        tracer.spans.append((tracer.job_id, span_id, parent_span, name, t0, t1))
                tracer._after(name, args, result)
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of the traced modules and rebind them."""
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                callback = getattr(obj, "callback", None)
                if inspect.isfunction(callback) and callback.__module__ == mod.__name__:
                    self._register(f"{short}.{attr}", callback)
                elif (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._register(f"{short}.{attr}", obj)
        self._rebind()
        self._assert_no_stale_references()

    def _register(self, name: str, fn: Callable) -> None:
        if id(fn) not in self._originals:
            self._originals[id(fn)] = (name, fn)
            self._wrappers[id(fn)] = self._wrap(name, fn)

    def _swap(self, value):
        return self._wrappers.get(id(value)) if inspect.isfunction(value) else None

    def _swap_defaults(self, fn) -> None:
        if fn.__defaults__:
            fn.__defaults__ = tuple(self._swap(v) or v for v in fn.__defaults__)
        if fn.__kwdefaults__:
            fn.__kwdefaults__ = {k: self._swap(v) or v for k, v in fn.__kwdefaults__.items()}

    def _rebind(self) -> None:
        package_modules = [m for n, m in list(sys.modules.items())
                           if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in package_modules:
            for attr, value in list(vars(mod).items()):
                new = self._swap(value)
                if new is not None:
                    setattr(mod, attr, new)
                    continue
                new_callback = self._swap(getattr(value, "callback", None))
                if new_callback is not None:  # a click command
                    value.callback = new_callback
                elif inspect.isfunction(value) and getattr(value, "__module__", "").startswith(PACKAGE):
                    self._swap_defaults(value)
                elif inspect.isclass(value) and value.__module__.startswith(PACKAGE):
                    self._rebind_class(value)
                elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                    for f in dataclasses.fields(value):
                        new = self._swap(getattr(value, f.name))
                        if new is not None:
                            object.__setattr__(value, f.name, new)
        for original in [fn for _, fn in self._originals.values()]:
            self._swap_defaults(original)

    def _rebind_class(self, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            new = self._swap(value)
            if new is not None:
                setattr(cls, attr, new)
            fn = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            if inspect.isfunction(fn):
                self._swap_defaults(fn)
        if dataclasses.is_dataclass(cls):
            for f in dataclasses.fields(cls):
                new = self._swap(f.default)
                if new is not None:
                    f.default = new

    def _assert_no_stale_references(self) -> None:
        originals = [fn for _, fn in self._originals.values()]
        own = {id(originals), *map(id, self._originals.values())}
        for wrapper in self._wrappers.values():
            own.update(id(cell) for cell in wrapper.__closure__ or ())
        stale = [ref for ref in gc.get_referrers(*originals)
                 if id(ref) not in own and not isinstance(ref, types.FrameType)]
        if stale:
            names = sorted({name for ref in stale for oid, (name, fn) in self._originals.items()
                            if _refers_to(ref, fn)})
            raise TraceError(f"unpatched references to {names}: "
                             f"{[type(r).__name__ for r in stale]}")

    # -- metrics ------------------------------------------------------------

    def module_self_time(self, module: str) -> float:
        prefix = module + "."
        return sum(t for n, t in self.self_time.items() if n.startswith(prefix))


def _refers_to(container, fn) -> bool:
    if isinstance(container, dict):
        return any(v is fn for v in container.values())
    if isinstance(container, (tuple, list)):
        return any(v is fn for v in container)
    return True


def uncalled(tracer: Tracer, expected: List[str]) -> List[str]:
    """Expected functions that recorded no call in the traced jobs."""
    return [name for name in expected if tracer.calls[name] == 0]

