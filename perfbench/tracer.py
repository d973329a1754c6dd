"""Outside-in tracer: wraps public functions of freeprob modules at run time.

Nothing inside the package is edited; the tracer replaces module (or class)
attributes with timing wrappers, so every call that looks the name up at call
time -- from the CLI, from another module, or from inside the same module --
is recorded.

A span is ``[name, start, end, busy, child, parent, request, items, error]``.
``busy`` is the time spent inside the call; for a generator it is only the
time spent inside ``next()``, and ``items`` counts what it yielded.  ``child``
is the busy time of spans that ran while this one was innermost, so
``busy - child`` is the span's self time.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import types
from collections import Counter
from time import perf_counter

FIELDS = ("name", "start", "end", "busy", "child", "parent", "request", "items", "error")
NAME, START, END, BUSY, CHILD, PARENT, REQUEST, ITEMS, ERROR = range(len(FIELDS))

# (span name, module, attribute path, items-of-result) for each traced
# function.  The items function counts the work a call returned, where the
# layer defines one.
SPANNED = (
    ("cli", "cli", "main", None),
    ("circular.density", "circular", "density", lambda r: len(r.grid)),
    ("circular.cauchy_transform", "circular", "cauchy_transform", None),
    ("circular.pushforward_inverse_sqrt", "circular", "pushforward_inverse_sqrt", None),
    ("measures.integrate", "measures", "SpectralMeasure.integrate", None),
    ("noncrossing.enumerate_nc", "noncrossing", "enumerate_nc", None),
    ("noncrossing.enumerate_alternating", "noncrossing", "enumerate_alternating", None),
    ("cumulants.rdiag_moment", "cumulants", "rdiag_moment", None),
    ("models.load_model", "models", "load_model", None),
    ("psd.profile_table", "psd", "profile_table", None),
    ("psd.enumerate_psd", "psd", "enumerate_psd", None),
    ("psd.moment_polynomial", "psd", "moment_polynomial", None),
    ("psd.count_quadrangulations", "psd", "count_quadrangulations", None),
    ("series.negative_moments_lagrange", "series", "negative_moments_lagrange", None),
    ("series.lagrange_invert", "series", "lagrange_invert", None),
    ("resolvent.resolvent_norm", "resolvent", "resolvent_norm", None),
)
# Hot primitives that are only counted: a span per call would cost more than
# the call.
COUNTED = (
    ("ring.poly_mul", "ring", "Poly.__mul__"),
    ("resolvent.rescaled_series_derivative", "resolvent", "rescaled_series_derivative"),
)


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- span bookkeeping --------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, 0.0, 0.0, parent, self.request, 0, None])
        return len(self.spans) - 1

    def _charge(self, idx: int, t0: float, t1: float) -> None:
        """Add [t0, t1] to span idx and to the span that was innermost around it."""
        span = self.spans[idx]
        span[BUSY] += t1 - t0
        span[END] = t1
        if self._stack:
            self.spans[self._stack[-1]][CHILD] += t1 - t0

    def _timed(self, idx: int, call):
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return call()
        except BaseException as exc:
            if not isinstance(exc, StopIteration):
                self.spans[idx][ERROR] = type(exc).__name__
            raise
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._charge(idx, t0, t1)

    def _drive(self, idx: int, gen):
        """Re-yield ``gen``, timing only the inside of each next()."""
        while True:
            try:
                item = self._timed(idx, gen.__next__)
            except StopIteration:
                return
            self.spans[idx][ITEMS] += 1
            yield item

    # -- installing wrappers -----------------------------------------------

    def _wrap_spanned(self, name: str, fn, items_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            result = tracer._timed(idx, lambda: fn(*args, **kwargs))
            if isinstance(result, types.GeneratorType):
                return tracer._drive(idx, result)
            if items_of is not None:
                tracer.spans[idx][ITEMS] += items_of(result)
            return result

        return traced

    def _wrap_counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Wrap the traced functions of ``package`` (the imported freeprob)."""
        for name, module_name, path, items_of in SPANNED:
            owner, attr = _resolve(getattr(package, module_name), path)
            fn = getattr(owner, attr)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap_spanned(name, fn, items_of))
        for name, module_name, path in COUNTED:
            owner, attr = _resolve(getattr(package, module_name), path)
            fn = getattr(owner, attr)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap_counted(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, items, busy and self time, errors by type, callees reached."""
    out: dict[str, dict] = {}
    for span in spans:
        row = out.setdefault(span[NAME], {"calls": 0, "items": 0, "busy_s": 0.0, "self_s": 0.0,
                                          "errors": Counter(), "reaching": Counter()})
        row["calls"] += 1
        row["items"] += span[ITEMS]
        row["busy_s"] += span[BUSY]
        row["self_s"] += span[BUSY] - span[CHILD]
        if span[ERROR]:
            row["errors"][span[ERROR]] += 1
    # reaching[callee]: how many calls of this name made at least one call of callee
    for parent, callee in {(s[PARENT], s[NAME]) for s in spans if s[PARENT] >= 0}:
        out[spans[parent][NAME]]["reaching"][callee] += 1
    return out
