"""Span tracing of the kgdelta layers, installed from outside the package.

`Tracer.install()` replaces every public function of each layer module by
a timing wrapper at each module attribute its callers look it up by: a
function imported into another module is wrapped there too, with that
module as the call *site*.  `DiscreteOperator.apply` is wrapped on its
class, and scipy's `solve_banded` where evolution and variational call it.
Functions behind `functools.lru_cache` are not wrapped; they are cheap after
their first call.

Each call is timed with `perf_counter`.  Its self time is its duration
minus the time its traced children cover.  Calls are aggregated per
(parent, name, site); calls of the few low-frequency functions in `SPANS`
are also kept as full spans (name, site, start, end, parent span, op id).
Everything stays in memory until `dump()`.
"""
from __future__ import annotations

import inspect
import statistics
import time

LAYERS = ("cli", "experiments", "evolution", "field", "variational",
          "modulation", "profiles")

SPANS = frozenset({
    "cli.main", "experiments.bisect_threshold", "experiments.classify_trajectory",
    "experiments.track_center", "evolution.evolve", "variational.minimize_level",
    "variational.reference_levels", "modulation.fit_center", "modulation.decompose",
})

# closed-form profile evaluations; only calls on a whole grid count as evals
PROFILE_EVALS = frozenset({
    "profiles.soliton_Q", "profiles.soliton_Q_deriv",
    "profiles.neutral_even_mode_phi", "profiles.soliton_Q_gamma",
})
PARTIAL = "[partial]"  # name suffix of an eval call on anything but the grid

ROOT = "<root>"


class Tracer:
    def __init__(self):
        # frame: [name, child seconds, span index, nearest span index,
        #         direct-child counts by "name@site" (span frames only)]
        self.stack = [[ROOT, 0.0, -1, -1, None]]
        self.agg: dict[tuple[str, str, str], list] = {}
        self.spans: list = []
        self.op = -1  # op index within the run: the span group id
        self.grid_n = 0  # node count of the current op's grid

    # ------------------------------------------------------------ wrapping

    def wrap(self, fn, name: str, site: str):
        stack, agg, spans = self.stack, self.agg, self.spans
        clock = time.perf_counter
        keep = name in SPANS
        tracer = self
        grid_call = name in PROFILE_EVALS
        child_key = name + "@" + site  # key in the parent span's child counts

        def traced(*args, **kwargs):
            parent = stack[-1]
            label, child = name, child_key
            if grid_call and getattr(args[0], "size", 0) != tracer.grid_n:
                label = name + PARTIAL
                child = label + "@" + site
            if keep:
                frame = [label, 0.0, len(spans), len(spans), {}]
                spans.append(None)
            else:
                frame = [label, 0.0, -1, parent[3], None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent[1] += d
                key = (parent[0], label, site)
                a = agg.get(key)
                if a is None:
                    agg[key] = [1, d, d - frame[1]]
                else:
                    a[0] += 1
                    a[1] += d
                    a[2] += d - frame[1]
                if parent[4] is not None:
                    counts = parent[4]
                    counts[child] = counts.get(child, 0) + 1
                if keep:
                    spans[frame[2]] = (label, site, t0, t1, parent[3], tracer.op,
                                       tracer.grid_n, frame[4])

        return traced

    def install(self) -> None:
        import importlib

        import scipy.linalg

        modules = {layer: importlib.import_module(f"kgdelta.{layer}")
                   for layer in LAYERS}
        owner = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    owner[obj] = f"{layer}.{attr}"
        owner[scipy.linalg.solve_banded] = "scipy.solve_banded"
        for site, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = owner.get(obj) if callable(obj) else None
                if name is not None:
                    setattr(mod, attr, self.wrap(obj, name, site))
        op_cls = modules["evolution"].DiscreteOperator
        op_cls.apply = self.wrap(op_cls.apply, "evolution.DiscreteOperator.apply",
                                 "evolution")

    # -------------------------------------------------------------- output

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": s[0], "site": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "op": s[5], "n": s[6], "children": s[7]}
                for s in self.spans
            ],
            "aggregates": [
                {"parent": k[0], "name": k[1], "site": k[2], "count": v[0],
                 "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.agg.items())
            ],
        }


# ------------------------------------------------------------ layer metrics

def _sum(aggs, field, *, name=None, names=None, layer=None, parent=None, site=None):
    total = 0
    for a in aggs:
        if name is not None and a["name"] != name:
            continue
        if names is not None and a["name"] not in names:
            continue
        if layer is not None and not a["name"].startswith(layer + "."):
            continue
        if parent is not None and a["parent"] != parent:
            continue
        if site is not None and a["site"] != site:
            continue
        total += a[field]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, facts: list[dict], bytes_written: int) -> dict:
    """Per-layer metrics of one traced workload run.

    `facts` holds, per op, the numbers its output check read from the
    artifacts; `bytes_written` is the size of all artifacts of the run.
    A layer that does not run on a workload reports 0 for its metrics.
    """
    aggs, spans = trace["aggregates"], trace["spans"]
    evolve = "evolution.evolve"
    E, NORM_H, K = "field.energy_E_gamma", "field.norm_H", "field.functional_K_gamma"
    apply_ = "evolution.DiscreteOperator.apply"

    # one apply per step plus one before the first; one E per recorded sample
    evolves = [s for s in spans if s["name"] == evolve]
    for s in evolves:
        s["steps"] = s["children"].get(apply_ + "@evolution", 0) - 1
        s["samples"] = s["children"].get(E + "@evolution", 0)
    steps = sum(s["steps"] for s in evolves)
    samples = sum(s["samples"] for s in evolves)
    evolve_s = sum(s["end"] - s["start"] for s in evolves)
    node_steps = sum(s["n"] * s["steps"] for s in evolves)
    snapshot_mb = max((s["samples"] * 2 * s["n"] * 8 / 2**20 for s in evolves),
                      default=0.0)

    probes = [s["end"] - s["start"] for s in spans
              if s["name"] == "experiments.classify_trajectory"]
    n_probes = sum(f.get("probes", 0) for f in facts)
    iterations = sum(f.get("iterations", 0) for f in facts)
    trials = _sum(aggs, "count", name="variational.nehari_project")
    minimize_s = _sum(aggs, "total_s", name="variational.minimize_level")

    return {
        "cli.self_s": _sum(aggs, "self_s", layer="cli"),
        "cli.bytes_written": bytes_written,
        "experiments.probes": len(probes),
        "experiments.retries": sum(f.get("retries", 0) for f in facts),
        "experiments.probe_s": statistics.median(probes) if probes else 0.0,
        "experiments.observer_s": _sum(aggs, "total_s", names=(E, K, NORM_H),
                                       site="experiments"),
        "experiments.bits_per_probe": _ratio(sum(f.get("bits", 0.0) for f in facts),
                                             n_probes),
        "evolution.steps": steps,
        "evolution.samples": samples,
        "evolution.step_us": 1e6 * _ratio(_sum(aggs, "self_s", name=evolve), steps),
        "evolution.apply_s": _sum(aggs, "total_s", name=apply_, parent=evolve),
        "evolution.nonlinearity_s": _sum(aggs, "total_s",
                                         name="evolution.nonlinearity", parent=evolve),
        "evolution.ledger_s": _sum(aggs, "total_s", name="field.l2_sq",
                                   parent=evolve, site="evolution"),
        "evolution.record_s": _sum(aggs, "total_s", names=(E, NORM_H),
                                   parent=evolve, site="evolution"),
        "evolution.node_steps_per_s": _ratio(node_steps, evolve_s),
        "evolution.snapshot_mb": snapshot_mb,
        "field.calls": _sum(aggs, "count", layer="field"),
        "field.self_s": _sum(aggs, "self_s", layer="field"),
        "variational.iterations": iterations,
        "variational.trials": trials,
        "variational.escapes": sum(bool(f.get("escaped")) for f in facts),
        "variational.accept_ratio": _ratio(iterations, trials),
        "variational.iter_us": 1e6 * _ratio(minimize_s, iterations),
        "variational.solve_s": _sum(aggs, "total_s", name="scipy.solve_banded",
                                    site="variational"),
        "variational.project_s": _sum(aggs, "total_s",
                                      name="variational.nehari_project"),
        "variational.levels_s": _sum(aggs, "total_s",
                                     name="variational.reference_levels"),
        "modulation.frames": _sum(aggs, "count", name="modulation.decompose"),
        "modulation.fit_s": _sum(aggs, "total_s", name="modulation.fit_center"),
        "modulation.decompose_s": _sum(aggs, "total_s", name="modulation.decompose"),
        "profiles.evals": sum(a["count"] for a in aggs if a["name"] in PROFILE_EVALS
                              and not a["parent"].startswith("profiles.")),
        "profiles.quadratures": _sum(aggs, "count", name="profiles.gauss_panels"),
        "profiles.self_s": _sum(aggs, "self_s", layer="profiles"),
    }


EXACT = ("cli.bytes_written", "experiments.probes", "experiments.retries",
         "evolution.steps", "evolution.samples", "field.calls",
         "variational.iterations", "variational.trials", "variational.escapes",
         "modulation.frames", "profiles.evals", "profiles.quadratures")

UNITS = {
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "experiments.probes": "count", "experiments.retries": "count",
    "experiments.probe_s": "s", "experiments.observer_s": "s",
    "experiments.bits_per_probe": "bits/probe",
    "evolution.steps": "count", "evolution.samples": "count",
    "evolution.step_us": "us", "evolution.apply_s": "s",
    "evolution.nonlinearity_s": "s", "evolution.ledger_s": "s",
    "evolution.record_s": "s", "evolution.node_steps_per_s": "1/s",
    "evolution.snapshot_mb": "MB",
    "field.calls": "count", "field.self_s": "s",
    "variational.iterations": "count", "variational.trials": "count",
    "variational.escapes": "count", "variational.accept_ratio": "ratio",
    "variational.iter_us": "us", "variational.solve_s": "s",
    "variational.project_s": "s", "variational.levels_s": "s",
    "modulation.frames": "count", "modulation.fit_s": "s",
    "modulation.decompose_s": "s",
    "profiles.evals": "count", "profiles.quadratures": "count",
    "profiles.self_s": "s",
    "trace.overhead": "ratio",
}
