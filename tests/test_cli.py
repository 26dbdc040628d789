import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cluster_artin import (
    Diagram,
    artin_presentation,
    cli,
    coxeter_quotient,
    mutation_class,
    phi,
    psi,
    verifier,
)
from cluster_artin.cli import main
from cluster_artin.diagram import DEFAULT_CLASS_BUDGET
from cluster_artin.verifier import (
    DEFAULT_BUDGET,
    DEFAULT_COSET_CAP,
    FAIL,
    INCONCLUSIVE,
    PASS,
    SearchBudget,
    VerifierError,
    fuzz_soundness,
    verify_mutation_invariance,
)

from conftest import FIXTURES, GOLDEN, REPO, load_fixture, path_diagram


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def reference_verify(G: Diagram, vertex=None, *, whole_class=False,
                     budget=SearchBudget(), fuzz=0, seed=0, fmt="json"):
    """`verify`'s stdout, built from one payload rendered in one piece."""
    diagrams = mutation_class(G) if whole_class else (G,)
    reports = [verify_mutation_invariance(D, k, budget)
               for D in diagrams
               for k in ([vertex] if vertex else range(1, D.n + 1))]
    status = max((r.status for r in reports),
                 key=[PASS, INCONCLUSIVE, FAIL].index, default=PASS)
    payload = {"status": status, "results": [r.to_json() for r in reports]}
    if fuzz:
        payload["fuzz"] = fuzz_soundness(artin_presentation(G), fuzz, seed=seed)
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"{r.status} diagram={r.diagram.to_json()['edges']} k={r.vertex}"
             for r in reports]
    lines.append(f"overall: {status}")
    if fuzz:
        lines.append(f"fuzz: {payload['fuzz']}")
    return "\n".join(lines) + "\n"


def relator_set(P) -> tuple:
    return P.n_generators, tuple(r.word.letters for r in P.relators)


def module_container_sizes() -> dict:
    """The len() of every module-level dict, list and set in cluster_artin."""
    return {(name, attr): len(value)
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "cluster_artin"
            for attr, value in vars(module).items()
            if not attr.startswith("__")
            and isinstance(value, (dict, list, set))}


# A fresh interpreter runs `verify` with stdout sent to /dev/null and
# prints its own peak resident set (VmHWM).  ru_maxrss would not do: a
# child spawned by vfork starts out charged with the spawner's pages.
PEAK_RSS_CHILD = """
import sys
from cluster_artin import cli
sys.stdout = open("/dev/null", "w")
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    hwm = next(line for line in fh if line.startswith("VmHWM:"))
sys.__stdout__.write(f"{code} {hwm.split()[1]}\\n")
"""


def peak_kib(*argv) -> int:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD,
                          *map(str, argv)], env=env, capture_output=True,
                         text=True, check=True).stdout
    code, kib = out.split()
    assert code == "0"
    return int(kib)


class TestMutate:
    def test_double_mutation_is_identity(self, capsys, tmp_path):
        code, out = run(capsys, "mutate", FIXTURES / "square.json", "-k", 1, "-k", 1)
        assert code == 0
        original = load_fixture("square.json")
        assert json.loads(out) == {
            "n": original["n"],
            "edges": sorted(original["edges"]),
        }

    def test_a3_middle_gives_oriented_cycle(self, capsys):
        code, out = run(capsys, "mutate", FIXTURES / "a3.json", "-k", 2)
        assert code == 0
        obj = json.loads(out)
        assert len(obj["edges"]) == 3

    def test_matrix_input_is_converted(self, capsys):
        code, out = run(capsys, "mutate", FIXTURES / "a3-matrix.json", "-k", 2)
        code2, out2 = run(capsys, "mutate", FIXTURES / "a3.json", "-k", 2)
        assert code == code2 == 0
        assert out == out2

    def test_output_reingests_losslessly(self, capsys, tmp_path):
        code, out = run(capsys, "mutate", FIXTURES / "a3.json", "-k", 2)
        path = tmp_path / "mutated.json"
        path.write_text(out)
        code, back = run(capsys, "mutate", path, "-k", 2)
        assert json.loads(back) == load_fixture("a3.json")

    def test_invalid_vertex_errors(self, capsys):
        code = main(["mutate", str(FIXTURES / "a3.json"), "-k", "9"])
        err = capsys.readouterr().err
        assert code == 1
        assert "out of range" in err

    def test_dot_output(self, capsys):
        code, out = run(capsys, "mutate", FIXTURES / "a2.json", "-k", 1,
                        "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")


class TestPresent:
    def test_square_golden(self, capsys):
        code, out = run(capsys, "present", FIXTURES / "square.json")
        assert code == 0
        assert out == (GOLDEN / "square-artin.json").read_text()

    def test_triangle_golden_json_and_text(self, capsys):
        code, out = run(capsys, "present", FIXTURES / "b3-triangle.json")
        assert out == (GOLDEN / "triangle-artin.json").read_text()
        code, out = run(capsys, "present", FIXTURES / "b3-triangle.json",
                        "--format", "text")
        assert out == (GOLDEN / "triangle-artin.txt").read_text()

    def test_triangle_coxeter_golden(self, capsys):
        code, out = run(capsys, "present", FIXTURES / "b3-triangle.json",
                        "--kind", "coxeter", "--format", "text")
        assert out == (GOLDEN / "triangle-coxeter.txt").read_text()

    def test_bare_vertex_has_no_relators(self, capsys, tmp_path):
        path = tmp_path / "vertex.json"
        path.write_text('{"n": 1, "edges": []}')
        code, out = run(capsys, "present", path)
        assert code == 0
        assert json.loads(out)["relators"] == []

    def test_minimal_t3(self, capsys):
        code, out = run(capsys, "present", FIXTURES / "square.json", "--minimal-t3")
        families = [r["family"] for r in json.loads(out)["relators"]]
        assert families.count("T3") == 1

    def test_affine_mode_with_patterns(self, capsys):
        code, out = run(capsys, "present", FIXTURES / "affine-c2.json",
                        "--mode", "affine",
                        "--patterns", FIXTURES / "t4-patterns.json")
        assert code == 0
        assert json.loads(out)["generators"] == 3

    def test_deterministic_output(self, capsys):
        _, a = run(capsys, "present", FIXTURES / "d4.json")
        _, b = run(capsys, "present", FIXTURES / "d4.json")
        assert a == b


class TestVerify:
    def test_single_vertex_pass(self, capsys):
        code, out = run(capsys, "verify", FIXTURES / "b3-triangle.json",
                        "-k", 1, "--format", "text")
        assert code == 0
        assert "PASS" in out

    def test_class_all_vertices(self, capsys):
        code, out = run(capsys, "verify", FIXTURES / "a3.json",
                        "--class", "--all-vertices", "--format", "text")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) == 4 * 3  # class members times vertices

    def test_corrupted_map_fails(self, capsys):
        code, out = run(capsys, "verify", FIXTURES / "corrupted-map.json",
                        "--format", "text")
        assert code == 2
        assert "FAIL" in out

    def test_missing_vertex_argument(self, capsys):
        code = main(["verify", str(FIXTURES / "a3.json")])
        assert code == 1
        assert "all-vertices" in capsys.readouterr().err

    def test_budget_limited_exits_inconclusive(self, capsys):
        code, out = run(capsys, "verify", FIXTURES / "square.json", "-k", 1,
                        "--budget-nodes", 1)
        assert code == 3
        assert json.loads(out)["status"] == "INCONCLUSIVE"

    def test_fuzz_summary(self, capsys):
        code, out = run(capsys, "verify", FIXTURES / "a2.json", "-k", 1,
                        "--fuzz", 50, "--seed", 7)
        assert code == 0
        assert json.loads(out)["fuzz"]["words"] == 50

    def test_affine_harness_reports(self, capsys):
        code, out = run(capsys, "verify", FIXTURES / "affine-c2.json", "-k", 2,
                        "--mode", "affine",
                        "--patterns", FIXTURES / "t4-patterns.json",
                        "--coset-cap", 2000, "--budget-nodes", 20000)
        obj = json.loads(out)
        assert obj["status"] in ("PASS", "INCONCLUSIVE")
        assert code in (0, 3)

    @pytest.mark.parametrize("fmt", ("json", "text"))
    @pytest.mark.parametrize("fixture, flags, reference, exit_code", [
        ("a3.json", ("--class", "--all-vertices"), {"whole_class": True}, 0),
        ("a2.json", ("-k", 1, "--fuzz", 50, "--seed", 7),
         {"vertex": 1, "fuzz": 50, "seed": 7}, 0),
        ("square.json", ("-k", 1, "--budget-nodes", 1),
         {"vertex": 1, "budget": SearchBudget(max_nodes=1)}, 3),
    ])
    def test_output_equals_one_piece_rendering(self, capsys, fmt, fixture,
                                               flags, reference, exit_code):
        code, out = run(capsys, "verify", FIXTURES / fixture, *flags,
                        "--format", fmt)
        assert code == exit_code
        G = Diagram.from_json(json.loads((FIXTURES / fixture).read_text()))
        assert out == reference_verify(G, fmt=fmt, **reference)

    # sha256 of verify's stdout, as printed while coset tables were still
    # expanded to two columns per generator.
    @pytest.mark.parametrize("fixture, flags, exit_code, digest", [
        ("a3.json", ("--class", "--all-vertices"), 0,
         "8a28b482d54d711cbde5b1899de6595c08c588e5f3c67f8a32517063756abb0f"),
        ("a3.json", ("--class", "--all-vertices", "--format", "text"), 0,
         "7e539b33a397c889808ecd897b5ccede055c76cafb205bbd5cce2f249fbd88ac"),
        ("b3-triangle.json", ("-k", 1, "--format", "text"), 0,
         "4cc5598cd0398f840cf53eab0ba9ff267dc5742abbfbf5bc74617fe7e7cf8740"),
        ("corrupted-map.json", (), 2,
         "74118b188f44d866ebc6ac98586a9a3bd744391aacd6c9ce7c2e4bf3055f51c0"),
        ("a2.json", ("-k", 1, "--fuzz", 50, "--seed", 7), 0,
         "3e3279453660f0263b184e9ba995c40baeb12bd88cd22dc0c62c3f5a24e2978b"),
    ])
    def test_output_is_pinned(self, capsys, fixture, flags, exit_code,
                              digest):
        code, out = run(capsys, "verify", FIXTURES / fixture, *flags)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_no_instances_prints_empty_results(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"n": 0, "edges": []}')
        code, out = run(capsys, "verify", path, "--all-vertices")
        assert code == 0
        assert out == reference_verify(Diagram(0, ()))
        assert '"results": [],' in out

    def test_error_mid_run_leaves_stdout_empty(self, capsys, monkeypatch):
        calls = []
        verify = cli.verify_mutation_invariance

        def failing_third_call(*args):
            calls.append(args)
            if len(calls) == 3:
                raise VerifierError("third instance failed")
            return verify(*args)

        monkeypatch.setattr(cli, "verify_mutation_invariance",
                            failing_third_call)
        code = main(["verify", str(FIXTURES / "a3.json"), "--class",
                     "--all-vertices"])
        captured = capsys.readouterr()
        assert code == 1
        assert len(calls) == 3
        assert captured.out == ""
        assert captured.err == "error: third instance failed\n"

    def test_one_quotient_table_per_distinct_relator_set(self, capsys,
                                                         monkeypatch):
        enumerated = []
        todd_coxeter = verifier.todd_coxeter

        def recording(P, *args, **kwargs):
            enumerated.append(relator_set(P))
            return todd_coxeter(P, *args, **kwargs)

        monkeypatch.setattr(verifier, "todd_coxeter", recording)
        code, _ = run(capsys, "verify", FIXTURES / "a3.json", "--class",
                      "--all-vertices", "--fuzz", 20)
        assert code == 0
        G = Diagram.from_json(load_fixture("a3.json"))
        targets = [artin_presentation(G)] + [
            m.target for D in mutation_class(G) for k in range(1, D.n + 1)
            for m in (phi(D, k), psi(D, k))]
        distinct = {relator_set(coxeter_quotient(T)) for T in targets}
        assert len(distinct) < len(targets)
        assert sorted(enumerated) == sorted(distinct)

    def test_repeated_runs_leave_module_state_unchanged(self, capsys):
        # A coset cap that no other test passes: a cache keyed by it that
        # outlived the run would have to grow.
        argv = ("verify", FIXTURES / "a3.json", "--class", "--all-vertices",
                "--fuzz", 20, "--seed", 3, "--coset-cap", 999_983)
        before = module_container_sizes()
        first = run(capsys, *argv)
        after_first = module_container_sizes()
        assert first == run(capsys, *argv)
        assert first[0] == 0
        assert before == after_first == module_container_sizes()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads VmHWM from /proc (Linux)")
    def test_class_run_memory_does_not_grow_with_output(self, tmp_path):
        # The A5 class prints 95 instances, about 4.6 MB of JSON; rendering
        # it in one piece took the peak 37 MiB above a one-instance run.
        path = tmp_path / "a5.json"
        path.write_text(json.dumps(path_diagram(5).to_json()))
        whole_class = peak_kib("verify", path, "--class", "--all-vertices")
        single = peak_kib("verify", path, "-k", 1)
        assert whole_class - single < 16 * 1024


BAD_NUMERIC_FLAGS = {
    "budget-nodes": ("verify", "-k", 1, "--budget-nodes", -5),
    "budget-len": ("verify", "-k", 1, "--budget-len", -1),
    "coset-cap": ("verify", "-k", 1, "--coset-cap", 0),
    "cap": ("verify", "--class", "--all-vertices", "--cap", 0),
    "fuzz": ("verify", "-k", 1, "--fuzz", -1),
    "enumerate-cap": ("enumerate", "--cap", 0),
    "enumerate-coset-cap": ("enumerate", "--coset-cap", 0),
}


class TestNumericFlags:
    @pytest.mark.parametrize("argv", BAD_NUMERIC_FLAGS.values(),
                             ids=BAD_NUMERIC_FLAGS.keys())
    def test_out_of_range_is_a_usage_error(self, capsys, argv):
        command, *rest = argv
        with pytest.raises(SystemExit) as exc:
            main([command, str(FIXTURES / "a2.json"), *map(str, rest)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --" in err and "must be >=" in err

    def test_defaults_are_the_library_constants(self):
        parser = cli.build_parser()
        verify = parser.parse_args(["verify", "in.json", "-k", "1"])
        enumerate_ = parser.parse_args(["enumerate", "in.json"])
        for args in (verify, enumerate_):
            assert args.coset_cap == DEFAULT_COSET_CAP
            assert args.cap == DEFAULT_CLASS_BUDGET
        assert verify.budget_nodes == DEFAULT_BUDGET.max_nodes
        assert verify.budget_len == DEFAULT_BUDGET.len_slack

    def test_smallest_allowed_values_run(self, capsys):
        code, out = run(capsys, "verify", FIXTURES / "a2.json", "-k", 1,
                        "--budget-nodes", 1, "--budget-len", 0, "--fuzz", 0,
                        "--coset-cap", 1, "--cap", 1)
        assert code == 3
        assert json.loads(out)["status"] == "INCONCLUSIVE"


MALFORMED_DIAGRAMS = {
    "missing-edges": {"n": 3},
    "not-an-object": [1, 2],
    "two-element-edge": {"n": 3, "edges": [[1, 2]]},
    "string-n": {"n": "x", "edges": []},
    "fractional-weight": {"n": 2, "edges": [[1, 2, 1.5]]},
    "boolean-weight": {"n": 2, "edges": [[1, 2, True]]},
    "string-weight": {"n": 2, "edges": [[1, 2, "1"]]},
    "fractional-n": {"n": 2.0, "edges": [[1, 2, 1]]},
    "negative-n": {"n": -1, "edges": []},
    "fractional-matrix-entry": {"B": [[0, 1.5], [-1, 0]]},
    "boolean-matrix-entry": {"B": [[0, True], [-1, 0]]},
    "matrix-not-a-list": {"B": 3},
}


def map_fixture(**changes) -> dict:
    """The corrupted-map fixture with keys replaced (None deletes a key)."""
    obj = load_fixture("corrupted-map.json")
    for key, value in changes.items():
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    return obj


MALFORMED_MAP_FIXTURES = {
    "missing-diagram": map_fixture(diagram=None),
    "missing-k": map_fixture(k=None),
    "string-k": map_fixture(k="x"),
    "fractional-k": map_fixture(k=1.5),
    "boolean-k": map_fixture(k=True),
    "list-k": map_fixture(k=[2]),
    "k-out-of-range": map_fixture(k=4),
    "malformed-diagram": map_fixture(diagram={"n": 3}),
    "images-not-a-list": map_fixture(images=5),
    "image-not-a-list": map_fixture(images=[[[1, 1]], 2, [[3, 1]]]),
    "letter-not-a-pair": map_fixture(images=[[[1, 1]], [[2]], [[3, 1]]]),
    "letter-sign-two": map_fixture(images=[[[1, 1]], [[1, 2]], [[3, 1]]]),
    "letter-generator-zero": map_fixture(images=[[[1, 1]], [[0, 1]], [[3, 1]]]),
    "fractional-generator": map_fixture(images=[[[1, 1]], [[1.5, 1]], [[3, 1]]]),
    "too-few-images": map_fixture(images=[[[1, 1]], [[2, 1]]]),
    "image-outside-target": map_fixture(images=[[[1, 1]], [[4, 1]], [[3, 1]]]),
    "label-not-a-string": map_fixture(label=5),
}


# verify invocations whose flags conflict with each other or with a map
# fixture, and the flags the error line must name.
VERIFY_FLAG_CONFLICTS = {
    "map-fixture-class": (("corrupted-map.json", "--class"), ("--class",)),
    "map-fixture-all-vertices": (("corrupted-map.json", "--all-vertices"),
                                 ("--all-vertices",)),
    "map-fixture-k": (("corrupted-map.json", "-k", "2"), ("-k",)),
    "map-fixture-fuzz": (("corrupted-map.json", "--fuzz", "5"), ("--fuzz",)),
    "map-fixture-every-flag": (
        ("corrupted-map.json", "--class", "--all-vertices", "--fuzz", "5",
         "--format", "text"),
        ("--class", "--all-vertices", "--fuzz")),
    "k-and-all-vertices": (("a3.json", "-k", "2", "--all-vertices"),
                           ("-k", "--all-vertices")),
    "class-k-and-all-vertices": (
        ("a3.json", "--class", "-k", "2", "--all-vertices"),
        ("-k", "--all-vertices")),
    "class-without-vertex": (("a3.json", "--class"), ("-k", "--all-vertices")),
}


# Presenter flags that the chosen presentation would drop, and the flags the
# error line must name.
_PATTERNS = str(FIXTURES / "t4-patterns.json")
PRESENTER_FLAG_CONFLICTS = {
    "present-patterns-finite": (
        ("present", "a3.json", "--patterns", _PATTERNS), ("--patterns",)),
    "verify-patterns-finite": (
        ("verify", "a3.json", "-k", "1", "--patterns", _PATTERNS),
        ("--patterns",)),
    "verify-class-patterns-finite": (
        ("verify", "a3.json", "--class", "--all-vertices", "--patterns",
         _PATTERNS), ("--patterns",)),
    "map-fixture-patterns-finite": (
        ("verify", "corrupted-map.json", "--patterns", _PATTERNS),
        ("--patterns",)),
    "present-minimal-t3-affine": (
        ("present", "affine-c2.json", "--mode", "affine", "--minimal-t3"),
        ("--minimal-t3",)),
    "verify-minimal-t3-affine": (
        ("verify", "affine-c2.json", "-k", "2", "--mode", "affine",
         "--minimal-t3", "--patterns", _PATTERNS), ("--minimal-t3",)),
    "coxeter-affine": (
        ("present", "a3.json", "--kind", "coxeter", "--mode", "affine"),
        ("--mode affine",)),
    "coxeter-minimal-t3": (
        ("present", "a3.json", "--kind", "coxeter", "--minimal-t3"),
        ("--minimal-t3",)),
    "coxeter-patterns": (
        ("present", "a3.json", "--kind", "coxeter", "--patterns", _PATTERNS),
        ("--patterns",)),
    "coxeter-every-flag": (
        ("present", "affine-c2.json", "--kind", "coxeter", "--mode", "affine",
         "--minimal-t3", "--patterns", _PATTERNS),
        ("--mode affine", "--minimal-t3", "--patterns")),
}


# Four vertices, so that rows 1 and 2 (the coercions of true, "2" and 2.7)
# have templates and a lenient parser would accept the file.
_PATTERN_DIAGRAM = {"n": 4, "edges": [[1, 2, 1], [2, 3, 1], [3, 4, 1]]}

MALFORMED_PATTERN_FILES = {
    "top-level-list": [{"row": 5, "diagram": _PATTERN_DIAGRAM}],
    "patterns-not-a-list": {"patterns": {"row": 5, "diagram": _PATTERN_DIAGRAM}},
    "pattern-not-an-object": {"patterns": [5]},
    "missing-row": {"patterns": [{"diagram": _PATTERN_DIAGRAM}]},
    "missing-diagram": {"patterns": [{"row": 5}]},
    "string-row": {"patterns": [{"row": "2", "diagram": _PATTERN_DIAGRAM}]},
    "fractional-row": {"patterns": [{"row": 2.7, "diagram": _PATTERN_DIAGRAM}]},
    "boolean-row": {"patterns": [{"row": True, "diagram": _PATTERN_DIAGRAM}]},
    "malformed-diagram": {"patterns": [{"row": 5, "diagram": {"n": 3}}]},
}

# Files json.load cannot read: bytes that are not UTF-8, and nesting deep
# enough to exhaust the decoder's recursion.
UNREADABLE_JSON = {
    "not-utf8": b'\xff{"n": 2}',
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}

UNREADABLE_INPUT_COMMANDS = {
    "verify": ("verify", "{}", "-k", "1"),
    "present": ("present", "{}"),
    "cycles": ("cycles", "{}"),
}

UNREADABLE_PATTERNS_COMMANDS = {
    "verify": ("verify", str(FIXTURES / "affine-c2.json"), "-k", "2",
               "--mode", "affine", "--patterns", "{}"),
    "present": ("present", str(FIXTURES / "affine-c2.json"),
                "--mode", "affine", "--patterns", "{}"),
}


def assert_clean_error(capsys, code):
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    return captured.err


class TestMalformedInput:
    @pytest.mark.parametrize("obj", MALFORMED_DIAGRAMS.values(),
                             ids=MALFORMED_DIAGRAMS.keys())
    @pytest.mark.parametrize("command", ("mutate", "verify"))
    def test_clean_error_line(self, capsys, tmp_path, obj, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert_clean_error(capsys, main([command, str(path), "-k", "1"]))

    @pytest.mark.parametrize("obj", MALFORMED_MAP_FIXTURES.values(),
                             ids=MALFORMED_MAP_FIXTURES.keys())
    def test_map_fixture_clean_error_line(self, capsys, tmp_path, obj):
        path = tmp_path / "bad-map.json"
        path.write_text(json.dumps(obj))
        assert_clean_error(capsys, main(["verify", str(path)]))

    @pytest.mark.parametrize("argv, named", VERIFY_FLAG_CONFLICTS.values(),
                             ids=VERIFY_FLAG_CONFLICTS.keys())
    def test_verify_flag_conflict_clean_error_line(self, capsys, monkeypatch,
                                                   argv, named):
        def class_bfs(*args, **kwargs):
            raise AssertionError("flags must be checked before the class BFS")

        monkeypatch.setattr(cli, "mutation_class", class_bfs)
        name, *flags = argv
        err = assert_clean_error(
            capsys, main(["verify", str(FIXTURES / name), *flags]))
        for flag in named:
            assert flag in err

    @pytest.mark.parametrize("flags", ((), ("--class",)),
                             ids=("diagram", "class"))
    def test_fuzz_without_vertices_clean_error_line(self, capsys, monkeypatch,
                                                    tmp_path, flags):
        def class_bfs(*args, **kwargs):
            raise AssertionError("--fuzz must be checked before the class BFS")

        monkeypatch.setattr(cli, "mutation_class", class_bfs)
        path = tmp_path / "empty.json"
        path.write_text('{"n": 0, "edges": []}')
        err = assert_clean_error(capsys, main([
            "verify", str(path), "--all-vertices", "--fuzz", "3", *flags]))
        assert "--fuzz" in err

    @pytest.mark.parametrize("argv, named", PRESENTER_FLAG_CONFLICTS.values(),
                             ids=PRESENTER_FLAG_CONFLICTS.keys())
    def test_presenter_flag_conflict_clean_error_line(self, capsys, monkeypatch,
                                                      argv, named):
        def class_bfs(*args, **kwargs):
            raise AssertionError("flags must be checked before the class BFS")

        monkeypatch.setattr(cli, "mutation_class", class_bfs)
        command, name, *flags = argv
        err = assert_clean_error(
            capsys, main([command, str(FIXTURES / name), *flags]))
        for flag in named:
            assert flag in err

    @pytest.mark.parametrize("obj", MALFORMED_PATTERN_FILES.values(),
                             ids=MALFORMED_PATTERN_FILES.keys())
    def test_pattern_file_clean_error_line(self, capsys, tmp_path, obj):
        path = tmp_path / "bad-patterns.json"
        path.write_text(json.dumps(obj))
        assert_clean_error(capsys, main([
            "present", str(FIXTURES / "affine-c2.json"), "--mode", "affine",
            "--patterns", str(path)]))

    @pytest.mark.parametrize("raw", UNREADABLE_JSON.values(),
                             ids=UNREADABLE_JSON.keys())
    @pytest.mark.parametrize("argv", UNREADABLE_INPUT_COMMANDS.values(),
                             ids=UNREADABLE_INPUT_COMMANDS.keys())
    def test_unreadable_input_clean_error_line(self, capsys, tmp_path, raw,
                                               argv):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert_clean_error(
            capsys, main([a.format(path) for a in argv]))

    @pytest.mark.parametrize("raw", UNREADABLE_JSON.values(),
                             ids=UNREADABLE_JSON.keys())
    @pytest.mark.parametrize("argv", UNREADABLE_PATTERNS_COMMANDS.values(),
                             ids=UNREADABLE_PATTERNS_COMMANDS.keys())
    def test_unreadable_pattern_file_clean_error_line(self, capsys, tmp_path,
                                                      raw, argv):
        path = tmp_path / "bad-patterns.json"
        path.write_bytes(raw)
        assert_clean_error(
            capsys, main([a.format(path) for a in argv]))


class TestEnumerate:
    def test_a3_census(self, capsys):
        code, out = run(capsys, "enumerate", FIXTURES / "a3.json")
        obj = json.loads(out)
        assert code == 0
        assert obj["count"] == 4
        assert obj["coxeter_order"] == 24
        cycle_kinds = {k for m in obj["members"] for k in m["cycles"]}
        assert cycle_kinds <= {"AllWeightOne"}

    def test_b3_census_contains_triangle(self, capsys):
        code, out = run(capsys, "enumerate", FIXTURES / "b3.json")
        obj = json.loads(out)
        assert obj["coxeter_order"] == 48
        kinds = {k for m in obj["members"] for k in m["cycles"]}
        assert "TriangleTwoTwoOne" in kinds

    def test_d4_shared_order(self, capsys):
        code, out = run(capsys, "enumerate", FIXTURES / "d4.json")
        obj = json.loads(out)
        assert obj["count"] == 6
        assert obj["coxeter_order"] == 192

    def test_capped_census_keeps_the_decided_members(self, capsys):
        # At cap 8 some D4 members are decided and some are not.
        code, out = run(capsys, "enumerate", FIXTURES / "d4.json",
                        "--coset-cap", 8)
        obj = json.loads(out)
        assert code == 0
        assert obj["count"] == 6
        assert obj["coxeter_order"] == 192
        assert {m["coxeter_order"] for m in obj["members"]} == {192, None}

    def test_undecided_class_prints_null(self, capsys):
        code, out = run(capsys, "enumerate", FIXTURES / "a3.json",
                        "--coset-cap", 2)
        obj = json.loads(out)
        assert (code, obj["coxeter_order"]) == (0, None)
        assert {m["coxeter_order"] for m in obj["members"]} == {None}
        code, out = run(capsys, "enumerate", FIXTURES / "a3.json",
                        "--coset-cap", 2, "--format", "text")
        assert out.splitlines()[0] == "class size 4, coxeter order null"

    def test_two_decided_orders_are_an_error(self, capsys, monkeypatch):
        orders = iter((24, None, 48, 24))
        monkeypatch.setattr(cli, "group_order",
                            lambda *args, **kwargs: next(orders))
        err = assert_clean_error(
            capsys, main(["enumerate", str(FIXTURES / "a3.json")]))
        assert err == ("error: mutation class produced several orders: "
                       "{24, 48}\n")

    def test_one_memo_for_the_whole_census(self, capsys, monkeypatch):
        memos = []
        group_order = cli.group_order

        def recording_group_order(P, coset_cap, memo):
            memos.append(memo)
            return group_order(P, coset_cap, memo)

        monkeypatch.setattr(cli, "group_order", recording_group_order)
        code, out = run(capsys, "enumerate", FIXTURES / "d4.json")
        assert (code, json.loads(out)["coxeter_order"]) == (0, 192)
        assert len(memos) == 6
        assert all(memo is memos[0] for memo in memos)
        # Keyed by presentation: every member plus its sub-presentations.
        assert len(memos[0]) > 6

    # sha256 of the JSON census, as printed before the descent raced its
    # candidates and the class BFS skipped the mutation back to the parent.
    @pytest.mark.parametrize("name, digest", [
        ("A6", "e68c71f644f9ac372b97002a84020e186609f7c974c28be84bd36fc2451a6048"),
        ("E7", "d8d8f570137dbba2fa0a984298aae9a1fab00adefb7291e0c7aa8f86169f7b0a"),
    ])
    def test_census_output_is_pinned(self, capsys, tmp_path, name, digest):
        if name == "A6":
            path = tmp_path / "a6.json"
            path.write_text(json.dumps(path_diagram(6).to_json()))
        else:
            path = FIXTURES / "e7.json"
        code, out = run(capsys, "enumerate", path)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_outside_taxonomy_fails_before_any_order(self, capsys,
                                                     monkeypatch):
        def group_order(*args, **kwargs):
            raise AssertionError("every member must be presented first")

        monkeypatch.setattr(cli, "group_order", group_order)
        err = assert_clean_error(
            capsys, main(["enumerate", str(FIXTURES / "affine-c2.json")]))
        assert err == ("error: cycle (1, 3, 2) with weights (2, 2, 4) is "
                       "outside the finite-type taxonomy\n")


class TestCyclesAndOpposite:
    def test_cycles_text(self, capsys):
        code, out = run(capsys, "cycles", FIXTURES / "square.json",
                        "--format", "text")
        assert code == 0
        assert "AllWeightOne" in out

    def test_cycles_affine_mode(self, capsys, tmp_path):
        path = tmp_path / "unoriented.json"
        path.write_text(json.dumps(
            {"n": 3, "edges": [[1, 2, 1], [2, 3, 1], [1, 3, 1]]}
        ))
        code, out = run(capsys, "cycles", path, "--mode", "affine")
        assert code == 0
        assert json.loads(out)["cycles"][0]["class"] == "AffineOther"

    def test_opposite_roundtrip(self, capsys, tmp_path):
        code, out = run(capsys, "opposite", FIXTURES / "square.json")
        path = tmp_path / "op.json"
        path.write_text(out)
        code, back = run(capsys, "opposite", path)
        assert json.loads(back) == load_fixture("square.json")
