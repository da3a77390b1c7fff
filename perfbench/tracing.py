"""Spans recorded around the public entry points of each randers layer.

The library is not edited: ``Instrumentation.install`` replaces module
attributes, one class constructor and the field methods of given spec
instances with wrappers that open a span, and ``uninstall`` puts the
originals back.  Spans live in memory as (id, name, start, end, parent, op,
data) and are written out when the run ends.  ``layer_metrics`` turns the
spans of one operation into the per-layer metrics; a layer's self time is
its span time minus the time of the child spans named for it.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

from randers import boundary, cli, integrators, norms, recovery
from randers.fields import RadialProfile

_MISSING = object()
FIELD_MODULES = ("zermelo", "fields")

# per-layer counts that must repeat exactly for a fixed seed
COUNTS = ("integrators.rays", "integrators.accepted_steps", "integrators.rhs_rows",
          "integrators.unexited_rays", "geodesics.sweep_rays", "geodesics.brackets",
          "geodesics.fp_batches", "geodesics.fp_rays", "zermelo.eval_rows",
          "fields.eval_rows", "boundary.csv_bytes")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "data")

    def __init__(self, sid, name, parent, op, data):
        self.id, self.name, self.parent, self.op, self.data = sid, name, parent, op, data
        self.start = self.end = 0.0

    @property
    def dur(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``op`` labels the operation spans belong to."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = "setup"

    def call(self, name, fn, args, kwargs, data=None, after=None):
        """Run ``fn`` inside a span; ``after(result, args)`` fills span data."""
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else -1,
                    self.op, data)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if after is not None:
            span.data = after(out, args)
        return out

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after=after)
        return traced

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,op,data\n")
            for s in self.spans:
                data = "" if s.data is None else str(s.data).replace(",", ";")
                fh.write(f"{s.id},{s.name},{s.start!r},{s.end!r},{s.parent},{s.op},{data}\n")


def _rows(x):
    return int(x.shape[0]) if getattr(x, "ndim", 0) == 2 else 1


def _batch_stats(res, _args):
    return {"rays": int(len(res.status)), "accepted": int(res.steps.sum()),
            "unexited": int((res.status != integrators.EXITED).sum())}


def _file_bytes(index):
    return lambda _out, args: os.path.getsize(args[index])


class Instrumentation:
    """Installs and removes the span wrappers around each layer."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def _wrap_attr(self, owner, attr, name, after=None):
        self._patch(owner, attr, self.tracer.wrap(name, getattr(owner, attr), after))

    def install(self, specs=()):
        t = self.tracer
        batch = integrators.integrate_batch

        def integrate_batch(rhs, u0, stop, ctl=None, record=False):
            def traced_rhs(u):
                return t.call("integrators.rhs", rhs, (u,), {}, data=_rows(u))
            return t.call("integrators.batch", batch, (traced_rhs, u0, stop, ctl, record),
                          {}, after=_batch_stats)

        # integrate_batch is looked up on its module at call time; the other
        # entry points are patched where their callers look them up
        self._patch(integrators, "integrate_batch", integrate_batch)
        self._wrap_attr(boundary, "shoot_pairs", "geodesics.shoot_pairs")
        self._wrap_attr(boundary, "distance_matrix", "boundary.distance_matrix")
        self._wrap_attr(boundary, "save", "boundary.save", _file_bytes(1))
        self._wrap_attr(boundary, "load", "boundary.load", _file_bytes(0))
        self._wrap_attr(recovery, "recover_boundary_potential", "recovery.potential")
        self._wrap_attr(recovery, "herglotz_invert", "recovery.herglotz")
        self._wrap_attr(cli, "main", "cli.main")
        self._wrap_attr(cli, "parse_config", "config.parse")
        self._wrap_attr(cli, "build_scenario", "config.build",
                        lambda scn, _args: self.instrument_spec(scn.spec))
        self._wrap_attr(norms.RandersSpec, "__init__", "norms.spec")
        for spec in specs:
            self.instrument_spec(spec)

    def instrument_spec(self, spec):
        """Wrap the field methods of one spec, named for the fields' module."""
        for role, field, methods in (("alpha", spec.alpha, ("value", "partials")),
                                     ("beta", spec.beta, ("value", "jacobian"))):
            module = type(field).__module__.rsplit(".", 1)[-1]
            for method in methods:
                orig = getattr(field, method)
                name = f"{module}.{role}.{method}"

                def traced(x, _orig=orig, _name=name):
                    return self.tracer.call(_name, _orig, (x,), {}, data=_rows(x))
                self._patch(field, method, traced)
            speed = getattr(field, "speed", None)
            if isinstance(speed, RadialProfile):
                for method in ("profile", "profile_pair", "profile_d2"):
                    self._wrap_attr(speed, method, "expressions.eval")

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# metrics from spans


def _total(spans):
    return sum(s.dur for s in spans)


def layer_metrics(spans):
    """Per-layer metrics of one operation's spans (times in s, counts)."""
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p is not None else ""

    def kids(parents, name):
        return [c for p in parents for c in children.get(p.id, ()) if c.name == name]

    m = {}
    batches = named("integrators.batch")
    rhs = named("integrators.rhs")
    rays = sum(b.data["rays"] for b in batches)
    accepted = sum(b.data["accepted"] for b in batches)
    unexited = sum(b.data["unexited"] for b in batches)
    rhs_rows = sum(r.data for r in rhs)
    rhs_s = _total(rhs)
    m["integrators.rays"] = rays
    m["integrators.accepted_steps"] = accepted
    m["integrators.rhs_rows"] = rhs_rows
    m["integrators.rhs_rows_per_exit"] = rhs_rows / (rays - unexited) if rays > unexited else 0.0
    m["integrators.useful_row_share"] = 6.0 * accepted / rhs_rows if rhs_rows else 0.0
    m["integrators.unexited_rays"] = unexited
    m["integrators.self_s"] = _total(batches) - rhs_s

    shoots = named("geodesics.shoot_pairs")
    sweep_rays = brackets = fp_batches = fp_rays = 0
    for s in shoots:
        inner = kids([s], "integrators.batch")   # ids increase in call order
        if inner:
            sweep_rays += inner[0].data["rays"]
        if len(inner) > 1:
            brackets += inner[1].data["rays"]
        fp_batches += len(inner) - 1 if inner else 0
        fp_rays += sum(b.data["rays"] for b in inner[1:])
    fields = [s for s in spans if s.name.split(".", 1)[0] in FIELD_MODULES
              and parent_name(s).split(".", 1)[0] not in FIELD_MODULES]
    in_rhs = [s for s in fields if parent_name(s) == "integrators.rhs"]
    m["geodesics.self_s"] = _total(shoots) - _total(kids(shoots, "integrators.batch"))
    m["geodesics.spray_s"] = rhs_s - _total(in_rhs)
    m["geodesics.sweep_rays"] = sweep_rays
    m["geodesics.brackets"] = brackets
    m["geodesics.fp_batches"] = fp_batches
    m["geodesics.fp_rays"] = fp_rays
    m["geodesics.fp_rays_per_bracket"] = fp_rays / brackets if brackets else 0.0

    for module in FIELD_MODULES:
        mine = [s for s in fields if s.name.startswith(module + ".")]
        eval_s = _total(mine)
        rows = sum(s.data for s in mine if s.name == f"{module}.alpha.value")
        m[f"{module}.eval_s"] = eval_s
        m[f"{module}.eval_rows"] = rows
        m[f"{module}.rows_per_s"] = rows / eval_s if eval_s > 0.0 else 0.0
    m["expressions.eval_s"] = _total(s for s in named("expressions.eval")
                                     if parent_name(s) != "expressions.eval")

    matrices = named("boundary.distance_matrix")
    saves, loads = named("boundary.save"), named("boundary.load")
    m["boundary.self_s"] = _total(matrices) - _total(kids(matrices, "geodesics.shoot_pairs"))
    m["boundary.save_s"] = _total(saves)
    m["boundary.load_s"] = _total(loads)
    m["boundary.csv_bytes"] = sum(s.data for s in saves + loads)
    m["recovery.potential_s"] = _total(named("recovery.potential"))
    m["recovery.herglotz_s"] = _total(named("recovery.herglotz"))
    mains = named("cli.main")
    m["config.parse_s"] = _total(named("config.parse"))
    m["config.build_s"] = _total(named("config.build"))
    m["cli.self_s"] = _total(mains) - _total(c for p in mains for c in children.get(p.id, ()))
    return m


def run_metrics(tracer, traced_ops, traced_times, untraced_times):
    """Per-layer metrics of a traced run: median times, counts checked equal.

    Returns (metrics, counts_repeat, overhead_resolved).  ``counts_repeat``
    is None when fewer than two traced operations completed.
    ``norms.spec_s`` is the median time of one RandersSpec construction
    anywhere in the run (set-up included), since specs are built in set-up on
    some workloads and inside the operation on others.  The tracing overhead
    is the traced median minus the untraced median; it counts as resolved
    only when it is larger than ``trace.spread_s``, the range of the traced
    operation times.
    """
    per_op = [layer_metrics([s for s in tracer.spans if s.op == op]) for op in traced_ops]
    if not per_op:
        per_op = [layer_metrics([])]
    counts_repeat = (all(p[c] == per_op[0][c] for p in per_op for c in COUNTS)
                     if len(traced_ops) > 1 else None)
    metrics = {k: statistics.median(p[k] for p in per_op) for k in per_op[0]}
    specs = [s.dur for s in tracer.spans if s.name == "norms.spec"]
    metrics["norms.spec_s"] = statistics.median(specs) if specs else 0.0
    overhead = share = spread = 0.0
    if traced_times and untraced_times:
        untraced = statistics.median(untraced_times)
        overhead = statistics.median(traced_times) - untraced
        share = overhead / untraced
        spread = max(traced_times) - min(traced_times)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = share
    metrics["trace.spread_s"] = spread
    return metrics, counts_repeat, abs(overhead) > spread > 0.0
