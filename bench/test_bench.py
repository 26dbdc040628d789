"""Checks of the benchmark's own arithmetic, oracles and tracer.

Run with `python3 -m pytest bench/test_bench.py` from the root of a checkout.
They are not part of the package's test suite.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402


def test_covered_merges_overlaps_and_clips():
    assert layers.covered([], 0.0, 1.0) == 0.0
    assert layers.covered([(0.1, 0.3), (0.2, 0.5), (0.7, 0.8)], 0.0, 1.0) \
        == pytest.approx(0.5)
    assert layers.covered([(-1.0, 0.5), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.6)


def test_self_times_subtract_direct_children_only():
    spans = [
        ["main", -1, 0.0, 10.0, None],
        ["psi", 0, 1.0, 5.0, None],
        ["phi", 1, 2.0, 3.0, None],
        ["transport", 1, 3.5, 4.0, None],
        ["prove_trivial", 0, 6.0, 9.0, 4],
    ]
    assert layers.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 0.5, 3.0])


def test_per_layer_counts_and_ratios():
    runs = [[
        ["main", -1, 0.0, 10.0, None],
        ["quotient_table", 0, 0.0, 2.0, None],
        ["todd_coxeter", 1, 0.5, 1.5, 24],
        ["quotient_table", 0, 2.0, 2.1, None],
        ["todd_coxeter", 0, 3.0, 4.0, 6],
        ["artin_presentation", 0, 4.0, 4.5, ["artin[3|x]", 3]],
        ["artin_presentation", 0, 4.5, 5.0, ["artin[3|x]", 3]],
        ["prove_trivial", 0, 5.0, 5.002, 2],
        ["prove_trivial", 0, 5.1, 5.104, None],
        ["mutation_class", 0, 6.0, 7.0, 4],
        ["canonical_form", 9, 6.0, 6.5, None],
        ["canonical_form", 9, 6.5, 6.6, None],
    ]]
    m = layers.per_layer(runs, cpu_s=9.5, output_bytes=100, overhead_s=0.25)
    assert m["verifier.todd_coxeter_calls"] == 2
    assert m["verifier.cosets"] == 30
    assert m["verifier.table_cache_hit_ratio"] == 0.5
    assert m["verifier.todd_coxeter_s"] == pytest.approx(2.0)
    assert m["presentation.builds"] == 2
    assert m["presentation.distinct_ratio"] == 0.5
    assert m["presentation.relators"] == 6
    assert m["verifier.prove_found_ratio"] == 0.5
    assert m["verifier.cert_steps"] == 2
    assert m["verifier.prove_ms_p90"] == pytest.approx(4.0)
    assert m["diagram.canonical_useful_ratio"] == 2.0
    assert m["diagram.class_bfs_s"] == pytest.approx(0.4)
    assert m["verifier.instances"] == 0 and m["verifier.instance_ms_max"] == 0
    assert set(m) == {p["name"] for p in spec()["per_layer"]}
    shares = layers.shares(runs)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_percentile_is_nearest_rank():
    assert layers.percentile([], 0.5) == 0.0
    assert layers.percentile([3, 1, 2], 0.5) == 2
    assert layers.percentile(range(1, 11), 0.9) == 9


def test_weyl_orders_match_closed_forms():
    published = {"A3": 24, "A5": 720, "A6": 5040, "B3": 48, "B4": 384,
                 "D4": 192, "E6": 51840, "E7": 2903040, "E8": 696729600,
                 "F4": 1152, "G2": 12, "B3-triangle": 48}
    assert {name: workloads.weyl_order(name) for name in published} == published


def test_class_sizes_match_published_counts():
    # Torkildsen, arXiv:0801.3762: quivers mutation equivalent to A_n.
    a_counts = {3: 4, 4: 6, 5: 19, 6: 49, 7: 150, 8: 442}
    assert {n: workloads.class_size(f"A{n}") for n in a_counts} == a_counts
    assert [workloads.class_size(f"B{n}") for n in (3, 4)] == [5, 14]
    assert workloads.class_size("F4") is None


def test_seeded_inputs_are_reproducible_and_valid():
    for name, (n, edges) in workloads.DYNKIN.items():
        first = workloads.seeded_diagram(name, random.Random(7))
        assert first == workloads.seeded_diagram(name, random.Random(7))
        assert first["n"] == n
        got = sorted(sorted((i, j)) + [w] for i, j, w in first["edges"])
        assert len(got) == len(edges)
        oriented = [tuple(e) for e in first["edges"]]
        if len(edges) == n - 1:
            assert all(workloads._passes_through(v, oriented)
                       for v in range(1, n + 1))
        else:  # the oriented triangle stays cyclically oriented
            heads = sorted(j for _, j, _ in oriented)
            assert heads == list(range(1, n + 1))


def test_unanswered_invocation_fails_every_item():
    inv = workloads.enumerate_class("A6", "a6.json")
    tally = inv.judge(None, b"")
    assert (tally.attempted, tally.decided, tally.failed) == (49, 0, 49)
    tally = inv.judge(0, b"not json")
    assert tally.failed == 49 and tally.problems


def test_enumerate_oracle_rejects_wrong_order():
    inv = workloads.enumerate_class("A3", "a3.json")
    member = {"diagram": {"n": 3, "edges": []}, "cycles": {}, "coxeter_order": 24}
    good = {"count": 4, "coxeter_order": 24, "members": [member] * 4}
    assert inv.judge(0, json.dumps(good).encode()).failed == 0
    bad = dict(good, members=[member] * 3 + [dict(member, coxeter_order=12)])
    tally = inv.judge(0, json.dumps(bad).encode())
    assert tally.failed == 1 and tally.decided == 4


def spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_tracer_keeps_stdout_and_links_nested_calls(tmp_path):
    src = BENCH.parent / "src"
    if not (src / "cluster_artin").is_dir():
        pytest.skip("no cluster_artin sources next to the benchmark")
    diagram = tmp_path / "a3.json"
    diagram.write_text(json.dumps({"n": 3, "edges": [[1, 2, 1], [2, 3, 1]]}))
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("ARTIN_MUTATE_THREADS", None)
    args = ["verify", str(diagram), "-k", "2"]
    plain = subprocess.run([sys.executable, "-m", "cluster_artin.cli", *args],
                           capture_output=True, env=env, check=True)
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *args],
        capture_output=True, env=env, check=True)
    assert traced.stdout == plain.stdout
    spans = json.loads(spans_path.read_text())
    parent_of = {(spans[p][0] if p >= 0 else None, name)
                 for name, p, *_ in spans}
    assert (None, "main") in parent_of
    assert ("psi", "phi") in parent_of
    assert ("quotient_table", "todd_coxeter") in parent_of
    # The CLI's presenter reaches artin_presentation through its own binding.
    assert ("phi", "artin_presentation") in parent_of
    assert not any(name == "splice" for name, *_ in spans)
