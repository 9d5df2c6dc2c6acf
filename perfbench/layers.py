"""Per-layer metrics computed from the spans of one traced pass.

The layers are batchlat's modules: ``sim``, ``analytics``, ``policies`` and
``cli`` (``model`` is dataclass validation and shows up inside the others).
Busy time is the time a layer's outermost spans were open; self time is a
span's duration minus the part of it that its child spans cover, child spans
on other threads included, so the sweep's pool shows as work under
``run_sweep``. Ratios that have no base in a pass (no uniforms drawn, no
sweep run) are reported as 0.
"""

from __future__ import annotations

from collections import defaultdict

ANALYTICS_FNS = (
    "coverage_probability",
    "expected_time_cyclic",
    "expected_time_balanced",
    "expected_time_assignment",
    "exact_expected_time_structure",
)
SIM_KINDS = ("balanced", "explicit-vector", "cyclic", "explicit-structure", "random-cc")
LAYOUT_FNS = ("policies.cyclic_layout", "policies.shared_pair_layout", "policies.replicated_nonoverlap_layout")

# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "sim.monte_carlo.calls": ("count", "lower"),
    "sim.monte_carlo.busy_s": ("s", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.uniforms": ("count", "lower"),
    "sim.ns_per_uniform": ("ns", "lower"),
    **{f"sim.ns_per_uniform.{kind}": ("ns", "lower") for kind in SIM_KINDS},
    "sim.coverage_empirical.busy_s": ("s", "lower"),
    "sim.coverage_empirical.ns_per_uniform": ("ns", "lower"),
    "sim.random-cc.covered_ratio": ("ratio", "higher"),
    "ref.philox_ns_per_uniform": ("ns", "lower"),
    "ref.log1p_ns_per_uniform": ("ns", "lower"),
    "sim.floor_ratio": ("ratio", "lower"),
    **{
        f"analytics.{fn}.{what}": unit
        for fn in ANALYTICS_FNS
        for what, unit in (("calls", ("count", "lower")), ("busy_s", ("s", "lower")))
    },
    "analytics.busy_s": ("s", "lower"),
    "policies.busy_s": ("s", "lower"),
    "policies.groups_built": ("count", "lower"),
    "cli.run_sweep.busy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "cli.main.busy_s": ("s", "lower"),
    "cli.parallel_efficiency": ("ratio", "higher"),
    "cli.idle_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: s.duration
        - union_length([(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id] if c.end > s.start])
        for s in spans
    }


def uniforms(span) -> int:
    """Uniforms a sampling call consumes: n_samples * 4 * ceil(d / 4)."""
    if span.name == "sim.monte_carlo":
        cfg = span.args[0]
        d = cfg.system.n_workers * (2 if cfg.policy.kind.value == "random-cc" else 1)
        n = cfg.n_samples
    else:  # sim.coverage_empirical(n_batches, n_workers, n_samples, seed)
        d, n = span.args[1], span.args[2]
    return n * 4 * -(-d // 4)


def _per_ns(seconds: float, count: int) -> float:
    return seconds * 1e9 / count if count else 0.0


def pass_metrics(spans, threads: int, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one pass, except the ref.* and trace.* ones."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def outermost(span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.layer == span.layer:
                return False
            parent = by_id.get(parent.parent)
        return True

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(group) -> float:
        return sum(s.duration for s in group)

    def layer_busy(layer: str) -> float:
        return busy([s for s in spans if s.layer == layer and outermost(s)])

    def self_of(group) -> float:
        return sum(own[s.id] for s in group)

    mc, ce = named("sim.monte_carlo"), named("sim.coverage_empirical")
    sim_spans = [s for s in spans if s.layer == "sim"]
    sim_uniforms = sum(uniforms(s) for s in sim_spans)
    out = {
        "sim.monte_carlo.calls": len(mc),
        "sim.monte_carlo.busy_s": busy(mc),
        "sim.self_s": self_of(sim_spans),
        "sim.uniforms": sim_uniforms,
        "sim.ns_per_uniform": _per_ns(self_of(sim_spans), sim_uniforms),
        "sim.coverage_empirical.busy_s": busy(ce),
        "sim.coverage_empirical.ns_per_uniform": _per_ns(self_of(ce), sum(uniforms(s) for s in ce)),
    }
    for kind in SIM_KINDS:
        group = [s for s in mc if s.args[0].policy.kind.value == kind]
        out[f"sim.ns_per_uniform.{kind}"] = _per_ns(self_of(group), sum(uniforms(s) for s in group))
    cc = [s for s in mc if s.args[0].policy.kind.value == "random-cc" and s.result is not None]
    cc_trials = sum(s.args[0].n_samples for s in cc)
    out["sim.random-cc.covered_ratio"] = (
        sum(s.result.coverage_rate * s.args[0].n_samples for s in cc) / cc_trials if cc_trials else 0.0
    )
    for fn in ANALYTICS_FNS:
        group = named(f"analytics.{fn}")
        out[f"analytics.{fn}.calls"] = len(group)
        out[f"analytics.{fn}.busy_s"] = busy(group)
    out["analytics.busy_s"] = layer_busy("analytics")
    out["policies.busy_s"] = layer_busy("policies")
    out["policies.groups_built"] = sum(
        len(s.result[1].groups) for s in spans if s.name in LAYOUT_FNS and s.result is not None
    )
    sweeps = named("cli.run_sweep")
    sweep_wall = busy(sweeps)
    point_busy = sum(s.duration for s in spans if s.parent in {w.id for w in sweeps})
    out["cli.run_sweep.busy_s"] = sweep_wall
    out["cli.self_s"] = self_of([s for s in spans if s.layer == "cli"])
    out["cli.bytes_written"] = bytes_written
    out["cli.main.busy_s"] = busy(named("cli.main"))
    out["cli.parallel_efficiency"] = point_busy / (threads * sweep_wall) if sweep_wall else 0.0
    out["cli.idle_s"] = threads * sweep_wall - point_busy if sweep_wall else 0.0
    return out
