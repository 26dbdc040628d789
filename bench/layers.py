"""Per-layer metrics from the spans that traced_cli.py records.

Every `_s` metric is self time: a span's duration minus the part of its
interval covered by its child spans, summed over the spans of that kind.
Self times of all span kinds therefore partition the traced `main` spans.
"""

from __future__ import annotations

import math
from collections import defaultdict

# Span kinds whose self time makes up each per-layer time metric.
TIME_METRICS = {
    "diagram.class_bfs_s": ("mutation_class",),
    "diagram.canonical_s": ("canonical_form", "canonical_diagram"),
    "diagram.mutate_s": ("mutate_diagram",),
    "diagram.cycles_s": ("chordless_cycles",),
    "presentation.build_s": ("artin_presentation", "coxeter_presentation",
                             "affine_artin_presentation"),
    "mapping.map_s": ("phi", "psi", "delta", "compose"),
    "mapping.transport_s": ("transport",),
    "verifier.todd_coxeter_s": ("todd_coxeter",),
    "verifier.word_check_s": ("word_trivial_in_coxeter",),
    "verifier.prove_s": ("prove_trivial",),
    "verifier.replay_s": ("replay_certificate",),
    "verifier.abelianization_s": ("abelianization_check",),
    "cli.self_s": ("main",),
}

# Coarse groups for the printed shares of traced wall time.
SHARES = {
    "diagram": ("mutation_class", "canonical_form", "canonical_diagram",
                "mutate_diagram", "chordless_cycles"),
    "presentation": TIME_METRICS["presentation.build_s"],
    "mapping": ("phi", "psi", "delta", "compose", "transport"),
    "quotient": ("todd_coxeter", "quotient_table", "word_trivial_in_coxeter"),
    "prover": ("prove_trivial", "replay_certificate", "abelianization_check"),
    "verifier-other": ("verify_homomorphism", "verify_mutation_invariance",
                       "fuzz_soundness"),
    "cli": ("main",),
}


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list) -> list[float]:
    children = defaultdict(list)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered(children[i], start, end)
            for i, (_, _, start, end, _) in enumerate(spans)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(num: float, den: float) -> float:
    """num / den, reported as 0 when nothing was attempted."""
    return num / den if den else 0.0


def per_layer(span_lists: list[list], cpu_s: float, output_bytes: int,
              overhead_s: float) -> dict[str, float]:
    """All per-layer metrics over the traced invocations of one workload run."""
    self_by_kind = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    infos = defaultdict(list)
    table_misses = 0
    for spans in span_lists:
        for (name, parent, start, end, info), own in zip(spans, self_times(spans)):
            self_by_kind[name] += own
            calls[name] += 1
            durations[name].append(end - start)
            infos[name].append(info)
            if name == "todd_coxeter" and parent >= 0 \
                    and spans[parent][0] == "quotient_table":
                table_misses += 1

    metrics = {name: sum(self_by_kind[k] for k in kinds)
               for name, kinds in TIME_METRICS.items()}
    builds = [info for k in TIME_METRICS["presentation.build_s"]
              for info in infos[k]]
    proofs = infos["prove_trivial"]
    found = [steps for steps in proofs if steps is not None]
    prove_ms = [1000 * d for d in durations["prove_trivial"]]
    instance_ms = [1000 * d for d in durations["verify_mutation_invariance"]]
    members = sum(infos["mutation_class"])
    metrics.update({
        "diagram.class_members": members,
        "diagram.canonical_calls": calls["canonical_form"],
        "diagram.canonical_useful_ratio": ratio(members, calls["canonical_form"]),
        "presentation.builds": len(builds),
        "presentation.distinct_ratio": ratio(
            len({label for label, _ in builds}), len(builds)),
        "presentation.relators": sum(n for _, n in builds),
        "mapping.transport_calls": calls["transport"],
        "mapping.image_letters": sum(infos["transport"]),
        "verifier.todd_coxeter_calls": calls["todd_coxeter"],
        "verifier.cosets": sum(infos["todd_coxeter"]),
        "verifier.table_cache_hit_ratio": ratio(
            calls["quotient_table"] - table_misses, calls["quotient_table"]),
        "verifier.word_checks": calls["word_trivial_in_coxeter"],
        "verifier.prove_calls": len(proofs),
        "verifier.prove_found_ratio": ratio(len(found), len(proofs)),
        "verifier.prove_ms_p50": percentile(prove_ms, 0.5),
        "verifier.prove_ms_p90": percentile(prove_ms, 0.9),
        "verifier.cert_steps": sum(found),
        "verifier.instances": len(instance_ms),
        "verifier.instance_ms_p50": percentile(instance_ms, 0.5),
        "verifier.instance_ms_p90": percentile(instance_ms, 0.9),
        "verifier.instance_ms_max": max(instance_ms, default=0.0),
        "cli.output_bytes": output_bytes,
        "cli.cpu_s": cpu_s,
        "trace.overhead_s": overhead_s,
    })
    return metrics


def shares(span_lists: list[list]) -> dict[str, float]:
    """Share of the traced `main` time spent in each layer's own code."""
    own = defaultdict(float)
    for spans in span_lists:
        for (name, *_), t in zip(spans, self_times(spans)):
            own[name] += t
    total = sum(own.values())
    return {group: ratio(sum(own[k] for k in kinds), total)
            for group, kinds in SHARES.items()}
