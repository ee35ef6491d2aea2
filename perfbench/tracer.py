"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces the public functions of each layer module, and
the `__init__` of each hand-written public class, with timing wrappers.  It
does so by reassigning module and class attributes in the current process
only; no file of the package changes.  Classes stay classes, so
`isinstance` checks inside the package still hold.

Every wrapped call is a span.  A span's self time is its duration minus
the durations of the spans it directly encloses, so the self times of all
spans add up to the time covered by the outermost spans.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from time import perf_counter

LAYERS = ("arith", "weil", "orders", "quadratic", "strata", "census", "cli")

# private names worth a span of their own
EXTRA = {"arith": ("_pollard_brent",)}


class Stat:
    __slots__ = ("calls", "total", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # inclusive, outermost activation only
        self.self_time = 0.0
        self.active = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []  # [name, child seconds] per open span
        self.disc_bits = 0  # bit lengths of class_number_imaginary arguments
        self.den_bits_max = 0  # largest lattice denominator from lattice_hnf
        self.is_prime_in_factorize = 0
        self.layers = {}  # layer -> [open spans, seconds covered by its outermost spans]
        self._undo = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        layer = self.layers.setdefault(name.split(".")[0], [0, 0.0])
        stack = self.stack
        parent_is_factorize = name == "arith.is_prime"
        count_disc = name == "quadratic.class_number_imaginary"
        watch_den = name == "arith.lattice_hnf"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if parent_is_factorize and stack and stack[-1][0] == "arith.factorize":
                self.is_prime_in_factorize += 1
            if count_disc:
                self.disc_bits += abs(args[0]).bit_length()
            frame = [name, 0.0]
            stack.append(frame)
            stat.active += 1
            layer[0] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat.active -= 1
                layer[0] -= 1
                if not layer[0]:
                    layer[1] += elapsed
                stat.calls += 1
                stat.self_time += elapsed - frame[1]
                if not stat.active:
                    stat.total += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if watch_den:
                self.den_bits_max = max(self.den_bits_max, result[0].bit_length())
            return result

        return span

    def install(self, package):
        """Wrap the layer modules of `package` (the imported ppav module)."""
        modules = [getattr(package, layer) for layer in LAYERS]
        replacements = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if not public or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    replacements[obj] = self._wrap(name, obj)
                elif (
                    inspect.isclass(obj)
                    and "__init__" in vars(obj)
                    and not dataclasses.is_dataclass(obj)
                ):
                    init = vars(obj)["__init__"]
                    self._undo.append((obj, "__init__", init))
                    setattr(obj, "__init__", self._wrap(name, init))
        # a function imported by name into another module is the same object
        for module in modules + [package]:
            for attr, obj in list(vars(module).items()):
                wrapper = replacements.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def snapshot(self):
        return {
            "stats": {
                name: [s.calls, s.total, s.self_time]
                for name, s in self.stats.items()
                if s.calls
            },
            "layer_total": {layer: v[1] for layer, v in self.layers.items()},
            "disc_bits": self.disc_bits,
            "den_bits_max": self.den_bits_max,
            "is_prime_in_factorize": self.is_prime_in_factorize,
        }


def merge(snapshots):
    """One snapshot summing the spans of several traced passes."""
    stats, layer_total = {}, {}
    for snap in snapshots:
        for name, values in snap["stats"].items():
            stats[name] = [a + b for a, b in zip(stats.get(name, (0, 0.0, 0.0)), values)]
        for layer, seconds in snap["layer_total"].items():
            layer_total[layer] = layer_total.get(layer, 0.0) + seconds
    return {
        "stats": stats,
        "layer_total": layer_total,
        "disc_bits": sum(s["disc_bits"] for s in snapshots),
        "den_bits_max": max(s["den_bits_max"] for s in snapshots),
        "is_prime_in_factorize": sum(s["is_prime_in_factorize"] for s in snapshots),
    }
