"""Seeded inputs, workload definitions and oracles for the verifier benchmark.

Every oracle here is independent of the program under test.  Coxeter orders
come from the closed form |W| = product of the degrees of the basic
invariants; mutation-class sizes come from counting polygon triangulations
up to rotation (type A: Torkildsen, arXiv:0801.3762; type B: centrally
symmetric triangulations).  The Coxeter quotient of every diagram in a
finite mutation class is the Weyl group of its Dynkin type (Barot-Marsh,
arXiv:1112.2300), so each reported order must equal the closed form.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import comb, prod
from pathlib import Path
from typing import Callable

# Reference labelling of each input: (n, [(source, target, weight), ...]).
DYNKIN = {
    "A3": (3, ((1, 2, 1), (2, 3, 1))),
    "A5": (5, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1))),
    "A6": (6, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1))),
    "B4": (4, ((1, 2, 1), (2, 3, 1), (3, 4, 2))),
    "F4": (4, ((1, 2, 1), (2, 3, 2), (3, 4, 1))),
    "D4": (4, ((1, 4, 1), (2, 4, 1), (3, 4, 1))),
    "E6": (6, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (3, 6, 1))),
    # The oriented (2,2,1) triangle of the B3 class.  Reorienting one arrow
    # would leave finite type, so this input is only relabelled.
    "B3-triangle": (3, ((1, 2, 2), (2, 3, 1), (3, 1, 2))),
}

# Degrees of the basic invariants of each irreducible Weyl group.
_DEGREES = {
    "A": lambda n: range(2, n + 2),
    "B": lambda n: range(2, 2 * n + 1, 2),
    "D": lambda n: [*range(2, 2 * n - 1, 2), n],
    "E": lambda n: {6: (2, 5, 6, 8, 9, 12),
                    7: (2, 6, 8, 10, 12, 14, 18),
                    8: (2, 8, 12, 14, 18, 20, 24, 30)}[n],
    "F": lambda n: (2, 6, 8, 12),
    "G": lambda n: (2, 6),
}


def dynkin_type(name: str) -> tuple[str, int]:
    """('B', 3) for 'B3' and for 'B3-triangle'."""
    return name[0], int(name[1:].split("-")[0])


def weyl_order(name: str) -> int:
    family, rank = dynkin_type(name)
    return prod(_DEGREES[family](rank))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def triangulations_up_to_rotation(m: int) -> int:
    """Triangulations of a convex m-gon up to rotation, by Burnside's lemma.

    Only the identity, the half-turn (a diameter is fixed) and the rotations
    of order three (a central triangle is fixed) fix any triangulation.
    """
    fixed = catalan(m - 2)
    if m % 2 == 0:
        fixed += (m // 2) * catalan(m // 2 - 1)
    if m % 3 == 0:
        fixed += 2 * (m // 3) * catalan(m // 3 - 1)
    return fixed // m


def class_size(name: str) -> int | None:
    """Diagrams in the mutation class up to relabelling, where a formula exists.

    Type A_n diagrams correspond to triangulations of the (n+3)-gon up to
    rotation.  For n >= 3, type B_n diagrams correspond to centrally
    symmetric triangulations of the (2n+2)-gon up to rotation; each contains
    a diameter, so only the identity and the half-turn fix one, and the
    count is binom(2n, n) / (n + 1).
    """
    family, rank = dynkin_type(name)
    if family == "A":
        return triangulations_up_to_rotation(rank + 3)
    if family == "B" and rank >= 3:
        return catalan(rank)
    return None


def seeded_diagram(name: str, rng: random.Random) -> dict:
    """Diagram JSON for `name` under a random relabelling.

    A tree also gets a random orientation in which every vertex of degree
    two or more has an incoming and an outgoing arrow.  Mutating at such a
    vertex creates a triangle, so every seed asks the quotient layer for the
    same number of coset tables (four on E6).
    """
    n, edges = DYNKIN[name]
    if len(edges) == n - 1:
        while True:
            oriented = [(i, j, w) if rng.random() < 0.5 else (j, i, w)
                        for i, j, w in edges]
            if all(_passes_through(v, oriented) for v in range(1, n + 1)):
                break
        edges = oriented
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return {"n": n,
            "edges": [[labels[i - 1], labels[j - 1], w] for i, j, w in edges]}


def _passes_through(v: int, edges) -> bool:
    ins = sum(1 for _, j, _ in edges if j == v)
    outs = sum(1 for i, _, _ in edges if i == v)
    return ins + outs < 2 or (ins > 0 and outs > 0)


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Tally:
    """Items of one invocation: attempted, with a definite answer, wrong."""

    attempted: int = 0
    decided: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.decided += other.decided
        self.failed += other.failed
        self.problems += other.problems


@dataclass(frozen=True)
class Invocation:
    """One artin-mutate command line and the oracle for its output."""

    label: str
    args: tuple[str, ...]
    expected_items: int
    check: Callable[[dict], Tally]

    def judge(self, exit_code: int | None, stdout: bytes) -> Tally:
        """Tally the items; a crash, timeout or bad exit fails all of them."""
        if exit_code != 0:
            return self.unanswered(f"exit code {exit_code}")
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            return self.unanswered(f"unparsable output: {exc}")
        try:
            tally = self.check(payload)
        except (KeyError, TypeError, ValueError) as exc:
            return self.unanswered(f"malformed report: {exc!r}")
        tally.failed = min(tally.failed, tally.attempted)
        return tally

    def unanswered(self, why: str) -> Tally:
        n = self.expected_items
        return Tally(n, 0, n, [f"{self.label}: {why}"])


def _check_instances(name: str, results: list, expected: int) -> Tally:
    """Every instance PASS, exact round trips, quotient of Weyl order."""
    order = weyl_order(name)
    tally = Tally()
    for r in results:
        tally.attempted += 1
        if r["status"] in ("PASS", "FAIL"):
            tally.decided += 1
        orders = (r["phi"]["coxeter_order"], r["psi"]["coxeter_order"])
        if (r["status"] != "PASS" or r["roundtrips_exact"] is not True
                or orders != (order, order)):
            tally.failed += 1
            tally.problems.append(
                f"{name} k={r['vertex']} {r['diagram']['edges']}: status "
                f"{r['status']}, round trips {r['roundtrips_exact']}, "
                f"orders {orders} (want {order})")
    if len(results) != expected:
        missing = max(0, expected - len(results))
        tally.attempted += missing
        tally.failed += abs(expected - len(results))
        tally.problems.append(
            f"{name}: {len(results)} instances, want {expected}")
    return tally


def verify_class(name: str, path: str) -> Invocation:
    n = DYNKIN[name][0]
    size = class_size(name)

    def check(payload: dict) -> Tally:
        results = payload["results"]
        members = len({json.dumps(r["diagram"]) for r in results})
        want = size if size is not None else members
        tally = _check_instances(name, results, want * n)
        if members != want:
            tally.failed += 1
            tally.problems.append(f"{name}: {members} class members, want {want}")
        return tally

    return Invocation(f"verify {name} --class", (
        "verify", path, "--class", "--all-vertices"), (size or 1) * n, check)


def verify_all_vertices(name: str, path: str) -> Invocation:
    n = DYNKIN[name][0]
    return Invocation(f"verify {name}", ("verify", path, "--all-vertices"), n,
                      lambda payload: _check_instances(name, payload["results"], n))


def fuzz(name: str, path: str, words: int, seed: int) -> Invocation:
    """One instance (vertex 1) plus `words` random words, each an item."""

    def check(payload: dict) -> Tally:
        tally = _check_instances(name, payload["results"], 1)
        stats = payload["fuzz"]
        consistent = (
            stats["words"] == words
            and stats["quotient_rejected"] + stats["quotient_trivial"] == words
            and stats["certified"] + stats["not_found"] == words
            and stats["certified"] <= stats["quotient_trivial"])
        tally.attempted += words
        if consistent:
            tally.decided += stats["certified"] + stats["quotient_rejected"]
        else:
            tally.failed += words
            tally.problems.append(f"fuzz {name}: inconsistent counts {stats}")
        return tally

    return Invocation(f"fuzz {name}", (
        "verify", path, "-k", "1", "--fuzz", str(words), "--seed", str(seed)),
        1 + words, check)


def enumerate_class(name: str, path: str) -> Invocation:
    order, size = weyl_order(name), class_size(name)

    def check(payload: dict) -> Tally:
        members = payload["members"]
        tally = Tally(attempted=len(members))
        for m in members:
            if m["coxeter_order"] is not None:
                tally.decided += 1
            if m["coxeter_order"] != order:
                tally.failed += 1
                tally.problems.append(
                    f"{name} member {m['diagram']['edges']}: order "
                    f"{m['coxeter_order']}, want {order}")
        if payload["count"] != len(members) or payload["coxeter_order"] != order:
            tally.failed += 1
            tally.problems.append(
                f"{name}: count {payload['count']}, order "
                f"{payload['coxeter_order']} for {len(members)} members")
        if len(members) != size:
            tally.attempted += max(0, size - len(members))
            tally.failed += abs(size - len(members))
            tally.problems.append(f"{name}: {len(members)} members, want {size}")
        return tally

    return Invocation(f"enumerate {name}", ("enumerate", path), size, check)


FUZZ_WORDS = 1000

# Why each workload is in the benchmark, and which layer it isolates.
# BENCHMARK.json gates verify-class and enumerate; the others run on request.
WORKLOADS = {
    "verify-class": (
        "A5, B4 and F4 classes, every vertex: 183 instances on the prover's "
        "success path, many small quotient tables, large JSON output"),
    "verify-e6": (
        "E6, every vertex: four 51,840-coset tables and word checks through "
        "them; quotient layer and its memory, prover nearly idle"),
    "fuzz": (
        f"{FUZZ_WORDS} random words each on A3, B3-triangle and D4: the "
        "prover's exhaustion path with tiny quotient tables"),
    "enumerate": (
        "A6 class census, 49 members: class BFS and canonical forms plus "
        "Todd-Coxeter per member, bypassing the prover"),
}


def build(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    """Write the workload's seeded inputs into workdir; return its invocations."""
    rng = random.Random(f"{workload}:{seed}")

    def write(name: str) -> str:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(seeded_diagram(name, rng)) + "\n")
        return str(path)

    if workload == "verify-class":
        return [verify_class(name, write(name)) for name in ("A5", "B4", "F4")]
    if workload == "verify-e6":
        return [verify_all_vertices("E6", write("E6"))]
    if workload == "fuzz":
        return [fuzz(name, write(name), FUZZ_WORDS, seed)
                for name in ("A3", "B3-triangle", "D4")]
    if workload == "enumerate":
        return [enumerate_class("A6", write("A6"))]
    raise ValueError(f"unknown workload {workload!r}")
