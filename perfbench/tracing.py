"""Spans around the public functions of every holoseq module, from outside.

``Tracer.install`` replaces each public function and method of the layers
below with a wrapper that records a span (name, start, end, parent) in
memory.  Functions are replaced in their defining module and in every other
holoseq module that bound them by name (``cli`` imports ``guess_recurrence``,
``load_bfile``, ``build_egf``, the parsers and more that way); methods are
replaced on their class, which every caller shares.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.

A few spans also record sizes (coefficient bit lengths, matrix shapes, bytes)
through probes.  A probe runs after its span has ended, and the time it takes
is excluded from the parent's self time, so it only shows as tracing
overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# The package's modules.  ``sequences`` holds only SequenceTable, so its cost
# stays in its callers' self time.
LAYERS = ("polynomials", "series", "operators", "parsing", "guessing", "bfile", "meixner", "cli")

# Private names that are still layer boundaries: arithmetic operators, and
# RecurrenceOperator construction, which is where canonicalisation happens.
_OPERATORS = {"__call__", "__mul__", "__rmul__", "__add__", "__sub__", "__neg__", "__truediv__", "__pow__"}
_EXTRA = {("RecurrenceOperator", "__post_init__")}

# Short metric names for the spans the benchmark reports one by one.
NAMED = {
    "series.mul": "series.Series.__mul__",
    "series.div": "series.Series.__truediv__",
    "series.exp": "series.Series.exp",
    "series.inverse_sqrt": "series.Series.inverse_sqrt",
    "series.mul_polynomial": "series.Series.mul_polynomial",
    "meixner.build_egf": "meixner.build_egf",
    "meixner.a214615_terms": "meixner.a214615_terms",
    "operators.unroll": "operators.RecurrenceOperator.unroll",
    "operators.verify": "operators.RecurrenceOperator.verify",
    "operators.apply": "operators.DifferentialOperator.apply",
    "operators.to_recurrence": "operators.DifferentialOperator.to_recurrence",
    "operators.canonicalize": "operators.RecurrenceOperator.__post_init__",
    "guessing.guess": "guessing.guess_recurrence",
    "guessing.nullspace": "guessing.nullspace",
    "bfile.format": "bfile.format_bfile",
    "bfile.parse": "bfile.parse_bfile",
    "parsing.recurrence": "parsing.parse_recurrence",
    "parsing.operator": "parsing.parse_differential_operator",
    "polynomials.mul": "polynomials.Polynomial.__mul__",
}
CALL_COUNTS = ("series.mul", "operators.canonicalize", "polynomials.mul")


def _series_bits(counters: Counter, args, result) -> None:
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.coeffs)
    counters["series.coeff_bits_max"] = max(counters["series.coeff_bits_max"], bits)


def _term_bits(counters: Counter, terms) -> None:
    bits = max(abs(v).bit_length() for v in terms)
    counters["operators.term_bits_max"] = max(counters["operators.term_bits_max"], bits)


def _unroll(counters: Counter, args, result) -> None:
    counters["operators.unroll_terms"] += len(result) - len(args[1])
    _term_bits(counters, result.terms)


def _verify(counters: Counter, args, result) -> None:
    counters["operators.verify_indices"] += result.n_last_checked - result.n_first_checked + 1
    _term_bits(counters, args[1].terms)


def _nullspace(counters: Counter, args, result) -> None:
    counters["guessing.nullspace_rows"] += len(args[0])
    counters["guessing.nullspace_cols"] += len(args[0][0])
    counters["guessing.nullspace_dim"] += len(result)


def _guess(counters: Counter, args, result) -> None:
    counters["guessing.candidates"] += len(result)


def _format(counters: Counter, args, result) -> None:
    counters["bfile.bytes_written"] += len(result.encode())


def _parse(counters: Counter, args, result) -> None:
    text = args[0]
    counters["bfile.bytes_read"] += len(text) if isinstance(text, bytes) else len(text.encode())


_PROBES: dict[str, Callable[[Counter, tuple, Any], None]] = {
    NAMED["series.mul"]: _series_bits,
    NAMED["series.div"]: _series_bits,
    NAMED["series.exp"]: _series_bits,
    NAMED["series.inverse_sqrt"]: _series_bits,
    NAMED["series.mul_polynomial"]: _series_bits,
    NAMED["operators.unroll"]: _unroll,
    NAMED["operators.verify"]: _verify,
    NAMED["guessing.nullspace"]: _nullspace,
    NAMED["guessing.guess"]: _guess,
    NAMED["bfile.format"]: _format,
    NAMED["bfile.parse"]: _parse,
}

# Sizes recorded by the probes, with their units.
COUNTERS = {
    "series.coeff_bits_max": "bits",
    "operators.unroll_terms": "count",
    "operators.verify_indices": "count",
    "operators.term_bits_max": "bits",
    "guessing.nullspace_rows": "count",
    "guessing.nullspace_cols": "count",
    "guessing.nullspace_dim": "count",
    "guessing.candidates": "count",
    "bfile.bytes_written": "bytes",
    "bfile.bytes_read": "bytes",
}

# Every metric ``Tracer.metrics`` returns, with its unit.
UNITS = {
    **{f"{short}_s": "s" for short in NAMED},
    **{f"{short}_calls": "count" for short in CALL_COUNTS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "parsing.calls": "count",
    **COUNTERS,
}


def _public_callables(module):
    """(owner, attribute, raw attribute, span name) for every wrap target."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            yield module, name, obj, f"{layer}.{name}"
        elif inspect.isclass(obj) and not name.startswith("_") and not issubclass(obj, BaseException):
            for attr, raw in vars(obj).items():
                public = not attr.startswith("_") or attr in _OPERATORS or (name, attr) in _EXTRA
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if public and inspect.isfunction(func):
                    yield obj, attr, raw, f"{layer}.{name}.{attr}"


class Tracer:
    """In-memory span recorder for one traced pass at a time."""

    def __init__(self) -> None:
        # [name, start, end, end including the probe, parent index or -1]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, name: str, func: Callable) -> Callable:
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        probe = _PROBES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = span[3] = clock()
                stack.pop()
            if probe is not None:
                probe(counters, args, result)
                span[3] = clock()
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"holoseq.{layer}") for layer in LAYERS]
        package = importlib.import_module("holoseq")
        replaced: dict[int, Callable] = {}
        for module in modules:
            for owner, attr, raw, name in list(_public_callables(module)):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                    if owner is module:
                        replaced[id(raw)] = wrapped
                        continue
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        # Module-level functions: replace every binding by name, in any module.
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replaced[id(value)])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def metrics(self) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
        """Per-layer metrics for the spans recorded since the last reset,
        and a per-function table of calls, total and self seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, _, cover_end, parent in self.spans:
            if parent >= 0:
                covered[parent] += cover_end - start
        table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        out: dict[str, float] = {}
        for short, name in NAMED.items():
            out[f"{short}_s"] = table[name]["self_s"] if name in table else 0.0
        for short in CALL_COUNTS:
            name = NAMED[short]
            out[f"{short}_calls"] = table[name]["calls"] if name in table else 0
        for layer in LAYERS:
            rows = [row for name, row in table.items() if name.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = sum(row["self_s"] for row in rows)
            if layer == "parsing":
                out["parsing.calls"] = sum(row["calls"] for row in rows)
        for key in COUNTERS:
            out[key] = self.counters[key]
        return out, dict(table)
