"""Span tracer that wraps ``mchern``'s layer functions from outside the package.

:meth:`Tracer.install` replaces each function in :data:`TARGETS` with a
wrapper that records a span: name, start, end, its parent span and the
``cli.main`` span of the command it belongs to.  A function imported by
name into another module (``cli.blow_up``, ``corpus.blow_up``, ...) is
replaced there too, and an operator is wrapped under both of its names
(``__mul__`` and ``__rmul__``).  :meth:`Tracer.uninstall` puts every
original back.

Spans stay in memory.  Per-name statistics (calls, total time, self time =
total minus time in child spans) are kept for every span; the individual
span records are kept for every layer except ``ring``, whose operand-level
calls run into the millions per run and are only aggregated.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path, span name).  Two targets may share a span name.
TARGETS = (
    ("ring", "LPolynomial.__mul__", "ring.LPolynomial.mul"),
    ("ring", "LPolynomial.__rmul__", "ring.LPolynomial.mul"),
    ("ring", "LPolynomial.divide_by_monic", "ring.LPolynomial.divide_by_monic"),
    ("ring", "MotivicClass.__add__", "ring.MotivicClass.add"),
    ("ring", "MotivicClass.__radd__", "ring.MotivicClass.add"),
    ("ring", "MotivicClass.__mul__", "ring.MotivicClass.mul"),
    ("ring", "MotivicClass.__rmul__", "ring.MotivicClass.mul"),
    ("ring", "MotivicClass.__eq__", "ring.MotivicClass.eq"),
    ("ring", "MotivicClass.reduced", "ring.MotivicClass.reduced"),
    ("ring", "MotivicClass.to_json", "ring.MotivicClass.to_json"),
    ("modsys", "ModificationSystem.chi", "modsys.chi"),
    ("modsys", "ModificationSystem.euler_chi", "modsys.euler_chi"),
    ("modsys", "ModificationSystem.total_class", "modsys.total_class"),
    ("modsys", "system_to_json", "modsys.system_to_json"),
    ("blowup", "blow_up", "blowup.blow_up"),
    ("blowup", "verify_invariance", "blowup.verify_invariance"),
    ("blowup", "total_class_delta_matches", "blowup.audit"),
    ("blowup", "fiber_completeness_holds", "blowup.audit"),
    ("blowup", "program_from_json", "blowup.program_from_json"),
    ("blowup", "run_program", "blowup.run_program"),
    ("strata", "sweep_identities", "strata.sweep_identities"),
    ("strata", "verify_simplex", "strata.verify_simplex"),
    ("strata", "verify_simplexcor", "strata.verify_simplexcor"),
    ("strata", "euler_shadow_simplexcor", "strata.euler_shadow_simplexcor"),
    ("sampling", "random_invariance_case", "sampling.random_invariance_case"),
    ("surface", "SurfaceModel.__init__", "surface.SurfaceModel.init"),
    ("surface", "SurfaceModel.relative", "surface.relative"),
    ("surface", "SurfaceModel.csm_stratum", "surface.csm_stratum"),
    ("surface", "SurfaceModel.stringy_class", "surface.stringy_class"),
    ("surface", "SurfaceModel.stage_model", "surface.stage_model"),
    ("surface", "SurfaceModel.fiber_euler_profile", "surface.fiber_euler_profile"),
    ("surface", "SurfaceModel.export_modification_system", "surface.export_modification_system"),
    ("surface", "ChowClass.to_json", "surface.ChowClass.to_json"),
    ("surface", "events_from_json", "surface.events_from_json"),
    ("surface", "events_to_json", "surface.events_to_json"),
    ("cfun", "pushforward", "cfun.pushforward"),
    ("cfun", "weighted_unit", "cfun.weighted_unit"),
    ("cfun", "function_from_json", "cfun.function_from_json"),
    ("cfun", "function_to_json", "cfun.function_to_json"),
    ("cfun", "BaseFunction.to_json", "cfun.BaseFunction.to_json"),
    ("cli", "main", "cli.main"),
    ("cli", "load_payload", "cli.load_payload"),
    ("cli", "build_report", "cli.build_report"),
    ("cli", "emit", "cli.emit"),
)

# Span groups reported as one layer metric.
DECODE = ("cli.load_payload", "blowup.program_from_json", "surface.events_from_json",
          "cfun.function_from_json")
REPORT = ("cli.build_report", "cli.emit", "modsys.system_to_json", "ring.MotivicClass.to_json",
          "surface.ChowClass.to_json", "surface.events_to_json", "cfun.function_to_json",
          "cfun.BaseFunction.to_json")

MAX_SPANS = 400_000


def _nonzero(coeffs) -> int:
    return sum(1 for c in coeffs if c)


def _count_mul(tracer, args, result):
    a, b = args
    other = b.coeffs if hasattr(b, "coeffs") else (b,)
    tracer.counters["coeff_mults"] += _nonzero(a.coeffs) * _nonzero(other)


def _chi_sizes(tracer, args, result):
    c = tracer.counters
    bits = max((abs(x).bit_length() for x in result.num.coeffs), default=0)
    c["chi_max_num_degree"] = max(c["chi_max_num_degree"], result.num.degree)
    c["chi_max_coeff_bits"] = max(c["chi_max_coeff_bits"], bits)
    c["chi_max_den_len"] = max(c["chi_max_den_len"], len(result.den))


def _sweep_cases(tracer, args, result):
    tracer.counters["sweep_cases"] += result.cases


HOOKS = {
    "ring.LPolynomial.mul": _count_mul,
    "modsys.chi": _chi_sizes,
    "strata.sweep_identities": _sweep_cases,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list[tuple] = []  # (id, parent, root, name, start_ns, end_ns)
        self.dropped = 0
        self.counters = dict.fromkeys(
            ("coeff_mults", "chi_max_num_degree", "chi_max_coeff_bits", "chi_max_den_len",
             "sweep_cases"), 0)
        self._stack: list[list] = []  # frames: [child_ns, span id, root id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        keep = not name.startswith("ring.")
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent[1] if parent else None
            root = parent[2] if parent else span_id
            frame = [0, span_id, root]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if keep:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, parent[1] if parent else None, root, name,
                                      start, end))
                    else:
                        tracer.dropped += 1

        return traced

    def install(self):
        """Wrap every target, wherever a module of the package holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "mchern" or n.startswith("mchern.")) and m is not None]
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(f"mchern.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            self._patch(owner, attr, wrapped)
            if not outer:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, (0, 0, 0))[0] for n in names)

    def total_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def span_durations(self, name: str) -> list[float]:
        """Durations in seconds of the kept spans called ``name``, in end order."""
        return [(end - start) / 1e9 for _, _, _, n, start, end in self.spans if n == name]


RING_SELF = ("ring.LPolynomial.mul", "ring.LPolynomial.divide_by_monic",
             "ring.MotivicClass.add", "ring.MotivicClass.mul", "ring.MotivicClass.eq",
             "ring.MotivicClass.reduced")

# Span statistics reported per layer: (metric, stats[, spans summed]).  A
# metric without its own span list reads the span of the same name.
LAYER_STATS = (
    ("ring.LPolynomial.mul", ("calls", "self_s")),
    ("ring.LPolynomial.divide_by_monic", ("calls", "self_s")),
    ("ring.MotivicClass.add", ("calls", "self_s")),
    ("ring.MotivicClass.mul", ("calls", "self_s")),
    ("ring.MotivicClass.eq", ("calls", "self_s")),
    ("ring.MotivicClass.reduced", ("calls", "self_s")),
    ("modsys.chi", ("calls", "self_s", "total_s")),
    ("modsys.euler_chi", ("calls", "total_s")),
    ("modsys.total_class", ("calls", "self_s")),
    ("blowup.blow_up", ("calls", "self_s")),
    ("blowup.verify_invariance", ("calls", "total_s")),
    ("blowup.audit", ("self_s",)),
    ("blowup.program_from_json", ("self_s",)),
    ("strata.sweep_identities", ("self_s",)),
    ("strata.verify_simplex", ("calls", "self_s")),
    ("strata.verify_simplexcor", ("calls", "self_s")),
    ("strata.euler_shadow_simplexcor", ("self_s",)),
    ("sampling.random_invariance_case", ("self_s",)),
    ("surface.SurfaceModel.init", ("self_s",)),
    ("surface.relative", ("calls", "self_s")),
    ("surface.csm_stratum", ("calls", "self_s")),
    ("surface.stringy_class", ("calls", "total_s")),
    ("surface.stage_model", ("calls", "total_s")),
    ("surface.fiber_euler_profile", ("calls", "total_s")),
    ("surface.export_modification_system", ("calls", "self_s")),
    ("cfun.pushforward", ("calls", "self_s")),
    ("cfun.weighted_unit", ("self_s",)),
    ("cli.decode", ("self_s",), DECODE),
    ("cli.report", ("self_s",), REPORT),
    ("cli.main", ("calls", "total_s")),
)


def layer_metrics(tracer: Tracer, passes: int, steps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass over the workload's prefix.

    ``steps`` is the number of blow-up steps the prefix asks for (program
    steps plus invariance cases), the base of ``blowup.blow_up.per_step``.
    """
    read = {"calls": tracer.calls, "self_s": tracer.self_s, "total_s": tracer.total_s}
    out: dict[str, tuple[float, str]] = {}
    for metric, stats, *spans in LAYER_STATS:
        names = spans[0] if spans else (metric,)
        for stat in stats:
            unit = "count" if stat == "calls" else "s"
            out[f"{metric}.{stat}"] = (read[stat](*names) / passes, unit)

    c = tracer.counters
    out["ring.LPolynomial.mul.coeff_mults"] = (c["coeff_mults"] / passes, "count")
    out["modsys.chi.max_num_degree"] = (c["chi_max_num_degree"], "count")
    out["modsys.chi.max_coeff_bits"] = (c["chi_max_coeff_bits"], "bits")
    out["modsys.chi.max_den_len"] = (c["chi_max_den_len"], "count")
    blow_ups = tracer.calls("blowup.blow_up")
    out["blowup.blow_up.per_step"] = (blow_ups / (steps * passes) if steps else 0.0, "ratio")
    # verify_simplex(cor) run only on sweep cache misses, so their calls
    # count the distinct verifications.
    distinct = tracer.calls("strata.verify_simplex", "strata.verify_simplexcor")
    cases = c["sweep_cases"]
    out["strata.sweep.cache_hit_ratio"] = (1 - distinct / cases if cases else 0.0, "ratio")
    return out
