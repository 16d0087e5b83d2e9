"""Span and counter recorder for the benchmark's traced run.

The recorder wraps leafwise's public entry points from outside the package;
the package source is not edited.  A function is replaced at every binding
site: its defining module, each leafwise module that imported it by name
(``patch.normal_jets``, ``leafwise.evaluate``) and module-level dicts that
hold it (``catalog.CATALOG``, ``cli.COMMANDS``).  A method is replaced on
its class.  ``sympy.lambdify`` is wrapped as a counter only.

Spans are aggregated in memory per name: calls, inclusive seconds and self
seconds (inclusive minus the time covered by child spans).  A span whose
name is already open is transparent, so recursion and nested builders
(``torus_revolution`` -> ``torus``, ``ScaledImmersion`` -> its base
supplier) are counted once, at the outermost call.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span and counter aggregates keyed by name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []  # open spans: [name, start, seconds covered by children]
        self._open = set()

    def is_open(self, name: str) -> bool:
        return name in self._open

    def call(self, name, fn, args=(), kwargs=None, after=None):
        """Run fn(*args, **kwargs) inside span `name`; `after(tracer, args,
        kwargs, result)` runs once the span has closed (outermost call only)."""
        kwargs = kwargs or {}
        if name in self._open:
            return fn(*args, **kwargs)
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        self._open.add(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self._open.discard(name)
            self.record(name, self.clock() - frame[1], frame[2])
        if after is not None:
            after(self, args, kwargs, out)
        return out

    def record(self, name: str, seconds: float, child_seconds: float = 0.0):
        """Add one finished span (also used for spans timed elsewhere)."""
        self.calls[name] += 1
        self.total[name] += seconds
        self.self_time[name] += seconds - child_seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def count(self, name: str, value: float = 1.0):
        self.counts[name] += value

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counts": dict(self.counts)}

    def merge(self, summary: dict):
        """Add the aggregates of another process (a traced CLI command)."""
        for key, target in (("calls", self.calls), ("total", self.total),
                            ("self", self.self_time), ("counts", self.counts)):
            for name, value in summary[key].items():
                target[name] += value


# ---------------------------------------------------------------------------
# counters computed from results


def _nbytes(obj) -> int:
    """Computed bytes of the arrays a jets or geometry result holds."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif hasattr(value, "d1"):  # the Jets inside a PointGeometry
            total += _nbytes(value)
    return total


def _npoints(out) -> int:
    first = out[0] if isinstance(out, tuple) else out
    return int(np.shape(first)[0])


def _after_jets(tracer, args, kwargs, jets):
    npts = jets.r.shape[0]
    tracer.count("suppliers.jets_points", npts)
    if jets.d3 is not None:
        tracer.count("suppliers.jets_o3_points", npts)
    tracer.count("suppliers.jets_bytes", _nbytes(jets))


def _after_geometry(tracer, args, kwargs, geo):
    npts = geo.x.shape[0]
    tracer.count("patch.geometry_points", npts)
    tracer.count("patch.geometry_bytes", _nbytes(geo))
    if tracer.is_open("operators.op"):
        tracer.count("operators.geometry_points", npts)


def _after_op(tracer, args, kwargs, out):
    tracer.count("operators.result_points", _npoints(out))


def _public_functions(module):
    return [name for name, value in vars(module).items()
            if callable(value) and not name.startswith("_")
            and getattr(value, "__module__", None) == module.__name__
            and not isinstance(value, type)]


def span(name, after=None):
    """Wrapper factory: run the original inside span `name`."""
    def make(tracer, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, after)
        return traced
    return make


def counter(name):
    """Wrapper factory: count calls of the original, record no span."""
    def make(tracer, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.count(name)
            return original(*args, **kwargs)
        return traced
    return make


def _instance_field_jets(tracer, original):
    """leaf_metric_multiple returns an instance of a class it defines per
    call, so the returned field's jets are wrapped on the instance."""
    @functools.wraps(original)
    def traced(*args, **kwargs):
        field = original(*args, **kwargs)
        field.jets = span("operators.field_jets")(tracer, field.jets)
        return field
    return traced


def probes(lw):
    """(owner, attribute, wrapper factory) for every traced entry point.

    `lw` maps a leafwise module's short name to the module.
    """
    sup, rev, ops = lw["suppliers"], lw["revolution"], lw["operators"]
    fls, vc = lw["functionals"], lw["varcheck"]
    table = [(sup.AnalyticSupplier, "__init__", span("suppliers.compile")),
             (sys.modules["sympy"], "lambdify", counter("suppliers.kernels"))]
    table += [(cls, "jets", span("suppliers.jets", _after_jets))
              for cls in (sup.AnalyticSupplier, sup.FiniteDifferenceSupplier,
                          sup.ReparametrizedSupplier, sup.ScaledImmersion,
                          sup.InvertedImmersion, rev.RevolutionSupplier)]
    table += [
        (sup.NormalDeformation, "jets", span("suppliers.deformation_jets")),
        (sup, "normal_jets", span("suppliers.normal_jets")),
        (lw["patch"].FoliatedPatch, "geometry", span("patch.geometry", _after_geometry)),
        (lw["patch"].FoliatedPatch, "integrate", span("patch.integrate")),
        (fls, "evaluate", span("functionals.evaluate")),
        (fls, "integrand", span("functionals.integrand")),
        (fls, "first_variation_density", span("functionals.first_variation_density")),
        (lw["variation"], "deformed_patch", span("variation.deformed_patch")),
        (vc, "verify_evolution", span("varcheck.evolution")),
        (vc, "verify_integral_identity", span("varcheck.identity")),
        (rev, "critical_ode_solve", span("revolution.ode_solve")),
        (rev, "second_variation_revolution", span("revolution.second_variation")),
        (ops, "leaf_metric_multiple", _instance_field_jets),
    ]
    table += [(lw["catalog"], name, span("catalog.build"))
              for name in _public_functions(lw["catalog"]) if name != "sphere_exprs"]
    table += [(lw["deltas"], name, span("deltas"))
              for name in _public_functions(lw["deltas"])]
    table += [(lw["symfunc"], name, span("symfunc"))
              for name in _public_functions(lw["symfunc"])]
    table += [(cls, "jets", span("operators.field_jets"))
              for cls in (ops.ScalarField, ops.LeafTensorField, ops.FullTensorField,
                          ops.LeafOneFormField)]
    # the stencil-using entry points; geometry evaluated inside them is
    # charged against the points they return
    table += [(owner, name, span("operators.op", _after_op))
              for owner, name in ((fls, "el_residual"), (ops, "leaf_laplacian"),
                                  (ops, "hessians"), (ops, "div_projector"),
                                  (ops, "fstar_squared"), (ops, "star_squared_full"),
                                  (ops, "fstar_one_form"))]
    return table


def _leafwise_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "leafwise" or name.startswith("leafwise."))]


def _rebind(original, replacement, namespaces, undo):
    """Replace `original` by `replacement` in every namespace and every
    module-level dict in it."""
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, replacement)
                undo.append(functools.partial(setattr, ns, key, original))
            elif isinstance(value, dict) and key != "__builtins__":
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
                        undo.append(functools.partial(value.__setitem__, k, original))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the probes for the duration of the block, then restore."""
    import leafwise  # noqa: F401  (the probes need the loaded modules)

    namespaces = _leafwise_modules()
    lw = {mod.__name__.split(".")[-1]: mod for mod in namespaces}
    undo = []
    try:
        for owner, attr, make in probes(lw):
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, make(tracer, original))
                undo.append(functools.partial(setattr, owner, attr, original))
            else:
                original = getattr(owner, attr)
                _rebind(original, make(tracer, original), namespaces + [owner], undo)
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics per traced op from a Tracer summary.

    The traced run records each paired op as spans ``op.untraced`` and
    ``op.traced``; a summary without them counts as one op."""
    calls = defaultdict(int, summary["calls"])
    total = defaultdict(float, summary["total"])
    own = defaultdict(float, summary["self"])
    cnt = defaultdict(float, summary["counts"])
    per = 1.0 / (calls["op.traced"] or 1)
    out = {
        "suppliers.compile_s": own["suppliers.compile"] * per,
        "suppliers.compiles": calls["suppliers.compile"] * per,
        "suppliers.kernels": cnt["suppliers.kernels"] * per,
        "catalog.build_s": total["catalog.build"] * per,
        "suppliers.jets_s": own["suppliers.jets"] * per,
        "suppliers.jets_points": cnt["suppliers.jets_points"] * per,
        "suppliers.jets_o3_points": cnt["suppliers.jets_o3_points"] * per,
        "suppliers.normal_jets_s": own["suppliers.normal_jets"] * per,
        "suppliers.deformation_jets_s": own["suppliers.deformation_jets"] * per,
        "suppliers.jets_bytes_per_point": _ratio(cnt["suppliers.jets_bytes"],
                                                 cnt["suppliers.jets_points"]),
        "patch.geometry_s": own["patch.geometry"] * per,
        "patch.geometry_calls": calls["patch.geometry"] * per,
        "patch.geometry_points": cnt["patch.geometry_points"] * per,
        "patch.geometry_points_per_s": _ratio(cnt["patch.geometry_points"],
                                              total["patch.geometry"]),
        "patch.geometry_bytes_per_point": _ratio(cnt["patch.geometry_bytes"],
                                                 cnt["patch.geometry_points"]),
        "patch.integrate_s": own["patch.integrate"] * per,
        "functionals.integrand_s": own["functionals.integrand"] * per,
        "functionals.evaluate_calls": calls["functionals.evaluate"] * per,
        "functionals.first_variation_density_s":
            own["functionals.first_variation_density"] * per,
        "deltas.s": own["deltas"] * per,
        "deltas.calls": calls["deltas"] * per,
        "operators.field_jets_s": own["operators.field_jets"] * per,
        "operators.field_jets_calls": calls["operators.field_jets"] * per,
        "operators.geometry_points_per_result_point": _ratio(
            cnt["operators.geometry_points"], cnt["operators.result_points"]),
        "variation.deformed_patches": calls["variation.deformed_patch"] * per,
        "varcheck.evolution_s": total["varcheck.evolution"] * per,
        "varcheck.evolution_cases": calls["varcheck.evolution"] * per,
        "varcheck.identity_s": total["varcheck.identity"] * per,
        "revolution.ode_solve_s": total["revolution.ode_solve"] * per,
        "revolution.ode_solves": calls["revolution.ode_solve"] * per,
        "revolution.second_variation_s": total["revolution.second_variation"] * per,
        "symfunc.s": own["symfunc"] * per,
        "cli.import_s": _ratio(total["cli.import"], calls["cli.import"]),
        "trace.overhead_ratio": _ratio(total["op.traced"], total["op.untraced"]),
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = total[f"cli.{command}"] * per
    return out


CLI_COMMANDS = ("profile", "eval", "elcheck", "varcheck", "confcheck", "secondvar")

# The layer metrics each op kind of the traced run reaches; any other layer
# metric reads 0 on that kind and is not reported for it.
_OP_LAYERS = (
    "suppliers.compile_s", "suppliers.compiles", "suppliers.kernels", "catalog.build_s",
    "suppliers.jets_s", "suppliers.jets_points", "suppliers.jets_o3_points",
    "suppliers.normal_jets_s", "suppliers.deformation_jets_s",
    "suppliers.jets_bytes_per_point", "patch.geometry_s", "patch.geometry_calls",
    "patch.geometry_points", "patch.geometry_points_per_s",
    "patch.geometry_bytes_per_point", "patch.integrate_s", "functionals.integrand_s",
    "functionals.evaluate_calls", "functionals.first_variation_density_s", "deltas.s",
    "deltas.calls", "variation.deformed_patches", "trace.overhead_ratio",
)
_CLI_LAYERS = (
    "operators.field_jets_s", "operators.field_jets_calls",
    "operators.geometry_points_per_result_point", "varcheck.evolution_s",
    "varcheck.evolution_cases", "varcheck.identity_s", "revolution.ode_solve_s",
    "revolution.ode_solves", "revolution.second_variation_s", "symfunc.s",
    "cli.import_s", *(f"cli.{command}_s" for command in CLI_COMMANDS),
)
KIND_METRICS = {
    # evaluate on surfaces built in set-up: no compile, deformation, deltas or
    # variation in the op, so a faster compile moves only its setup_s
    "grid-energy": tuple(name for name in _OP_LAYERS if not name.startswith(
        ("suppliers.comp", "suppliers.kernels", "catalog.", "suppliers.jets_o3",
         "suppliers.deformation", "functionals.first", "deltas.", "variation."))),
    "family-sweep": _OP_LAYERS,
    # no CLI command takes a first variation density
    "cli-suite": tuple(name for name in _OP_LAYERS + _CLI_LAYERS
                       if name != "functionals.first_variation_density_s"),
}

# The end-to-end metric each per-layer metric should move, on which
# workload; a name is <op kind>.<layer metric>.
_TARGETS = {
    "grid-energy": "points_per_s and peak_rss_mb on grid-energy",
    "family-sweep": "op_p50_s on family-sweep",
    "cli-suite": "op time of the cli-suite sweep (a traced-run op, not a timed workload)",
}
PER_LAYER = {f"{kind}.{name}": ("none: tracing overhead" if name.startswith("trace.")
                                else _TARGETS[kind])
             for kind, names in KIND_METRICS.items() for name in names}


def traced_metrics(summaries: dict) -> dict:
    """Per-layer metrics of a traced run, per op of each kind, from the
    Tracer summary of each op kind."""
    out = {}
    for kind, names in KIND_METRICS.items():
        metrics = layer_metrics(summaries[kind])
        out.update({f"{kind}.{name}": metrics[name] for name in names})
    return out
