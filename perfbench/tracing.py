"""Per-layer tracing of invgamma_benford from outside the package.

Every public function of each layer module is replaced by a timing
wrapper, both in its own module and wherever another module of the
package bound the same object by `from .x import name`.  Spans nest
through a stack, so a span's self time is its duration minus the time
of the spans it caused.  Only aggregates are kept (the verify workload
makes tens of thousands of incomplete-gamma calls per operation).
"""

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "invgamma_benford"
LAYERS = ("cli", "analysis", "series", "special", "oracle", "benford")


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _kernel_counts(fn, args, kwargs, result, counters):
    bound = _bound(fn, args, kwargs)
    points = int(getattr(bound["zs"], "size", 1))
    counters["series.fb_cdf_series_values.points"] += points
    counters["series.kernel_terms"] += (bound["trunc"].cutoff_m - 1) * points


def _cutoff_counts(fn, args, kwargs, result, counters):
    counters["series.cutoff_m.sum"] += result.cutoff_m


def _window_counts(fn, args, kwargs, result, counters):
    counters["oracle.window_k.sum"] += result


def _draw_counts(fn, args, kwargs, result, counters):
    counters["oracle.sample_invgamma.draws"] += int(_bound(fn, args, kwargs)["n"])


def _value_counts(fn, args, kwargs, result, counters):
    counters["benford.log_mod_1_array.values"] += int(result.size)


# Counts taken from a call's arguments or result, by span name.
COUNTERS = {
    "series.fb_cdf_series_values": _kernel_counts,
    "series.truncation_cutoff": _cutoff_counts,
    "oracle.oracle_window": _window_counts,
    "oracle.sample_invgamma": _draw_counts,
    "benford.log_mod_1_array": _value_counts,
}
COUNTER_NAMES = (
    "series.fb_cdf_series_values.points",
    "series.kernel_terms",
    "series.cutoff_m.sum",
    "oracle.window_k.sum",
    "oracle.sample_invgamma.draws",
    "benford.log_mod_1_array.values",
)


class Span:
    __slots__ = ("calls", "total_s", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Aggregated spans and counters for the wrapped functions."""

    def __init__(self):
        self.spans = {}
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.counter_errors = 0
        self.top_level_s = 0.0
        self.absent_layers = []
        self._child_time = []

    def wrap(self, name, fn):
        span = self.spans.setdefault(name, Span())
        count = COUNTERS.get(name)
        stack = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_level_s += elapsed
            if count is not None:
                try:
                    count(fn, args, kwargs, result, self.counters)
                except (TypeError, KeyError, AttributeError, ValueError):
                    # a refactor changed the signature or result; the
                    # count is lost, the program's behaviour is not
                    self.counter_errors += 1
            return result

        return wrapper

    def install(self):
        """Wrap every public function of every layer that still exists."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent_layers.append(layer)
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, module in modules.items():
            names = getattr(module, "__all__", None)
            if names is None:
                names = [n for n in vars(module) if not n.startswith("_")]
            for name in names:
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{name}", fn)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)

    def dump(self):
        return {
            "spans": {n: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                          "errors": s.errors} for n, s in sorted(self.spans.items())},
            "counters": dict(self.counters),
            "counter_errors": self.counter_errors,
            "absent_layers": self.absent_layers,
        }
