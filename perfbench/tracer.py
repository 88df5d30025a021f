"""Traced runs: per-layer self time and counts, measured from outside the program.

``Tracer`` wraps functions of the ``diomorph`` modules at *every* module
attribute bound to them, so calls through a name imported with
``from .morph import apply`` are seen as well as calls through
``morph.apply``.  Each wrapped call pushes a frame on a stack; a key's self
time is its time minus the time of wrapped calls made inside it.  Hot
functions are kept only as aggregates (calls, inclusive time counted at the
outermost call of the key, self time).  Coarse spans (run, CLI call, solver
or suite) carry parent ids and are kept in memory until the run ends.
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

SOLVERS = ("solve_one_unknown", "solve_two_unknowns",
           "solve_one_unknown_words", "solve_two_unknowns_words")
SUITES = ("condition_suite", "annihilation_suite",
          "staged_evaluation_suite", "functoriality_suite")


@dataclass(frozen=True)
class Probe:
    module: str
    function: str
    key: str
    span: bool = False
    counters: tuple[str, ...] = ()  # counters fed by the hook of this key
    count: str | None = None  # a counter raised by every call of this function


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0  # inclusive, counted at the outermost call of the key
    self_time: float = 0.0
    depth: int = 0


def _probes() -> list[Probe]:
    probes = [
        Probe("poly", "compose", "poly.compose"),
        Probe("poly", "evaluate", "poly.evaluate"),
        Probe("mtriple", "compile_polynomial", "mtriple.compile_polynomial"),
        Probe("mtriple", "direct_sum_maps", "mtriple.direct_sum_maps"),
        Probe("lang", "translate", "lang.translate"),
        Probe("lang", "word_from_runs", "lang.word_from_runs"),
        Probe("encode", "build_encoder", "encode.build_encoder", span=True,
              counters=("encode.letters", "encode.g1_nnz", "encode.g2_nnz",
                        "poly.tupled_terms")),
        Probe("encode", "matrices", "encode.matrices"),
        Probe("encode", "apply_generator_word", "encode.apply_generator_word"),
        Probe("morph", "apply", "morph.apply", counters=("morph.apply.runs_out", "morph.cap_hits")),
        Probe("morph", "compose", "morph.compose"),
        Probe("morph", "matrix_of", "morph.matrix_of"),
        Probe("matsem", "mat_mul", "matsem.mat_mul", counters=("matsem.mat_mul.nnz_out",)),
        Probe("matsem", "mat_pow", "matsem.mat_pow"),
        Probe("matsem", "p_side_matrix", "matsem.side_matrix"),
        Probe("matsem", "q_side_matrix", "matsem.side_matrix"),
        Probe("matsem", "vec_mat", "matsem.vec_mat"),
        Probe("matsem", "mat_vec", "matsem.mat_vec"),
        Probe("solve", "diophantine_oracle", "solve.diophantine_oracle", span=True),
        Probe("cli", "main", "cli.main", span=True),
    ]
    probes += [Probe("encode", name, f"encode.{name}", span=True, counters=("encode.suite_checks",))
               for name in SUITES]
    probes += [Probe("solve", name, f"solve.{name}", span=True,
                     counters=("solve.nodes", "solve.found", "solve.exhausted"))
               for name in SOLVERS]
    # interchange.read.calls counts documents parsed, i.e. calls of loads
    probes += [Probe("interchange", "loads", "interchange.read", count="interchange.read.calls")]
    probes += [Probe("interchange", name, "interchange.read")
               for name in ("polynomial_from_doc", "alphabet_from_doc",
                            "morphism_from_doc", "encoder_from_doc", "matrix_from_doc")]
    probes += [Probe("interchange", name, "interchange.write")
               for name in ("dumps", "polynomial_to_doc", "alphabet_to_doc",
                            "morphism_to_doc", "encoder_to_doc", "matrix_to_doc")]
    return probes


_HOOKED = {"matsem.mat_mul", "morph.apply", "encode.build_encoder",
           *(f"encode.{name}" for name in SUITES), *(f"solve.{name}" for name in SOLVERS)}


def _nnz(morphism) -> int:
    """Nonzero entries of a morphism's letter-count matrix: distinct letters per image."""
    return sum(len({z for z, _ in img.runs}) for img in morphism.images)


def method_metric(method: str) -> str:
    return "solve.method." + method.replace("+", "_")


@dataclass
class Tracer:
    """Collects aggregates, counters and spans while installed."""

    stats: dict[str, Stat] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    _stack: list[list[float]] = field(default_factory=list)  # [child time] per frame
    _span_stack: list[int] = field(default_factory=list)
    _solvers_open: int = 0
    _patched: list[tuple[Any, str, Any]] = field(default_factory=list)
    _gc_start: float | None = None
    _t0: float = 0.0
    _run_span: int = 0

    # ---------------------------------------------------------------- spans

    def open_span(self, name: str, **attrs) -> int:
        span_id = len(self.spans)
        parent = self._span_stack[-1] if self._span_stack else None
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "start": time.perf_counter() - self._t0, "end": None, **attrs})
        self._span_stack.append(span_id)
        return span_id

    def close_span(self, span_id: int) -> None:
        self.spans[span_id]["end"] = time.perf_counter() - self._t0
        self._span_stack.pop()

    # ------------------------------------------------------------ wrapping

    def _hook(self, key: str, result: Any) -> None:
        c = self.counters
        if key == "matsem.mat_mul":
            c["matsem.mat_mul.nnz_out"] += len(result.entries)
            if self._solvers_open:
                c["solve.nodes"] += 1
        elif key == "morph.apply":
            c["morph.apply.runs_out"] += len(result.runs)
        elif key == "encode.build_encoder":
            c["encode.letters"] += len(result.alphabet.letters)
            c["encode.g1_nnz"] += _nnz(result.g1)
            c["encode.g2_nnz"] += _nnz(result.g2)
            c["poly.tupled_terms"] += len(result.p_tupled.terms) + len(result.q_tupled.terms)
        elif key.startswith("encode.") and key.endswith("_suite"):
            c["encode.suite_checks"] += len(result.checks)
        elif key.startswith("solve.solve_"):
            c["solve.found" if result.found else "solve.exhausted"] += 1
            name = method_metric(result.method)
            c[name] = c.get(name, 0) + 1

    def _wrap(self, fn: Callable, probe: Probe, cap_error: type | None) -> Callable:
        key, span, count = probe.key, probe.span, probe.count
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter
        hooked = key in _HOOKED
        solver = key.startswith("solve.solve_")

        def wrapper(*args, **kwargs):
            span_id = self.open_span(key) if span else None
            if solver:
                self._solvers_open += 1
            if count is not None:
                self.counters[count] += 1
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if cap_error is not None and isinstance(exc, cap_error):
                    self.counters["morph.cap_hits"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_time += elapsed - frame[0]
                if stat.depth == 0:
                    stat.total += elapsed
                if solver:
                    self._solvers_open -= 1
                if span_id is not None:
                    self.close_span(span_id)
            if hooked:
                hook_start = clock()
                self._hook(key, result)
                elapsed += clock() - hook_start
            if stack:
                stack[-1][0] += elapsed
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        # only collections inside the program: the benchmark's own gc.collect()
        # between calls runs with no wrapped call open
        if phase == "start":
            self._gc_start = time.perf_counter() if self._stack else None
        elif self._gc_start is not None:
            self.counters["runtime.gc.collections"] += 1
            self.counters["runtime.gc.s"] += time.perf_counter() - self._gc_start

    def install(self) -> None:
        """Wrap every probe at every ``diomorph`` module attribute bound to it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "diomorph" or name.startswith("diomorph."))]
        cap_error = getattr(sys.modules.get("diomorph.errors"), "ExpansionCapExceeded", None)
        self.counters = {"runtime.gc.collections": 0, "runtime.gc.s": 0.0}
        for probe in _probes():
            home = sys.modules.get(f"diomorph.{probe.module}")
            fn = getattr(home, probe.function, None)
            if not callable(fn):
                self.missing.append(f"{probe.module}.{probe.function}")
                continue
            for name in probe.counters + ((probe.count,) if probe.count else ()):
                self.counters.setdefault(name, 0)
            wrapper = self._wrap(fn, probe, cap_error if probe.key == "morph.apply" else None)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))
        self._t0 = time.perf_counter()
        gc.callbacks.append(self._on_gc)
        self._run_span = self.open_span("run")

    def uninstall(self) -> None:
        self.close_span(self._run_span)
        gc.callbacks.remove(self._on_gc)
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Every metric the trace can give; keys whose functions are gone are left out."""
        out: dict[str, float] = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = stat.calls
            out[f"{key}.s"] = stat.total
            out[f"{key}.self_s"] = stat.self_time
        out.update(self.counters)
        if "solve.found" in self.counters:
            for method in ("product", "parikh-bridge", "parikh-bridge+word", "word"):
                out.setdefault(method_metric(method), 0)
        return out
