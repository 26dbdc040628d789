"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria with stated runtime bounds measure wall time and assert it.
"""

import json
import random
import time
from contextlib import contextmanager

import sympy

from cluster_artin import (
    CycleClass,
    Diagram,
    GroupMap,
    Word,
    affine_artin_presentation,
    affine_t_value,
    artin_presentation,
    chordless_cycles,
    coxeter_presentation,
    coxeter_quotient,
    delta,
    derive_t3_rotations,
    diagram_from_matrix,
    fuzz_soundness,
    load_t4_patterns,
    mutate_diagram,
    mutate_matrix,
    mutation_class,
    phi,
    prove_trivial,
    quotient_table,
    replay_certificate,
    t_relator,
    todd_coxeter,
    verify_homomorphism,
    verify_mutation_invariance,
    word_trivial_in_coxeter,
)
from cluster_artin.verifier import SearchBudget

from conftest import (
    AFFINE_C2,
    DYNKIN,
    FIXTURES,
    PENTAGON,
    SQUARE,
    SQUARE_1212,
    TRIANGLE_221,
    WEYL_ORDERS,
    random_two_finite_matrix,
)
from figures_data import ALL_PICTURES


@contextmanager
def criterion(num, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[C{num:02d}] {name}: FAIL")
        raise
    print(f"[C{num:02d}] {name}: PASS ({time.perf_counter() - started:.2f}s)")


FIXTURE_CLASSES = {name: mutation_class(G) for name, G in DYNKIN.items()}


def test_c01_mutation_involution():
    with criterion(1, "mutation involution over all fixture classes"):
        started = time.perf_counter()
        for members in FIXTURE_CLASSES.values():
            for G in members:
                for k in range(1, G.n + 1):
                    assert mutate_diagram(mutate_diagram(G, k), k) == G
        assert time.perf_counter() - started < 1.0


def test_c02_matrix_diagram_commutation():
    with criterion(2, "matrix/diagram mutation commutation"):
        rng = random.Random(113)
        for _ in range(1000):
            B = random_two_finite_matrix(rng, rng.randint(2, 6))
            k = rng.randint(1, B.n)
            assert diagram_from_matrix(mutate_matrix(B, k)) == mutate_diagram(
                diagram_from_matrix(B), k
            )
        # fixture classes, driven from their Dynkin matrices
        matrices = {
            "A3": ((0, 1, 0), (-1, 0, 1), (0, -1, 0)),
            "B3": ((0, 1, 0), (-1, 0, 1), (0, -2, 0)),
            "D4": ((0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 1), (-1, -1, -1, 0)),
            "G2": ((0, 1), (-3, 0)),
        }
        from cluster_artin import ExchangeMatrix

        for rows in matrices.values():
            frontier = [ExchangeMatrix(rows)]
            seen = set()
            while frontier:
                B = frontier.pop()
                if B.entries in seen:
                    continue
                seen.add(B.entries)
                for k in range(1, B.n + 1):
                    Bk = mutate_matrix(B, k)
                    assert diagram_from_matrix(Bk) == mutate_diagram(
                        diagram_from_matrix(B), k
                    )
                    if Bk.entries not in seen and len(seen) < 300:
                        frontier.append(Bk)
        # A weight-4 third side that outweighs its path: at k = 2 the update
        # takes the a*b < c branch and turns the new arrow round.
        B = ExchangeMatrix(((0, 1, -2), (-1, 0, 1), (2, -1, 0)))
        for k in range(1, 4):
            assert diagram_from_matrix(mutate_matrix(B, k)) == mutate_diagram(
                diagram_from_matrix(B), k
            )


def test_c03_figure_fidelity():
    with criterion(3, "figure golden pairs, both directions"):
        assert len(ALL_PICTURES) == 19
        for case, left, k, right in ALL_PICTURES:
            assert mutate_diagram(left, k) == right, case
            assert mutate_diagram(right, k) == left, case


def test_c04_cycle_taxonomy():
    with criterion(4, "cycle taxonomy closed over fixture classes"):
        for members in FIXTURE_CLASSES.values():
            for G in members:
                assert G.max_weight() <= 3
                for cycle in chordless_cycles(G):
                    assert cycle.cycle_class is not CycleClass.AFFINE_OTHER
                    assert cycle.oriented


def test_c05_coxeter_orders():
    with criterion(5, "Todd-Coxeter orders match the Weyl formula oracle"):
        started = time.perf_counter()

        def oracle(name):
            # closed-form orders, computed independently of enumeration
            kind, rank = name[0], int(name[1:])
            if kind == "A":
                return sympy.factorial(rank + 1)
            if kind == "B":
                return 2**rank * sympy.factorial(rank)
            if kind == "D":
                return 2 ** (rank - 1) * sympy.factorial(rank)
            if kind == "G":
                return 12
            raise AssertionError(name)

        for name, members in FIXTURE_CLASSES.items():
            orders = {
                todd_coxeter(coxeter_presentation(G), 10**6).order
                for G in members
            }
            assert orders == {int(oracle(name))}, name
            assert orders == {WEYL_ORDERS[name]}
        assert time.perf_counter() - started < 30.0


def test_c06_artin_coxeter_consistency():
    with criterion(6, "Artin + involutions enumerates to the Coxeter order"):
        for name, members in FIXTURE_CLASSES.items():
            for G in members:
                quotient = todd_coxeter(coxeter_quotient(artin_presentation(G)))
                coxeter = todd_coxeter(coxeter_presentation(G))
                assert quotient.order == coxeter.order == WEYL_ORDERS[name]


def test_c07_mutation_invariance_instances():
    with criterion(7, "mutation invariance certified over A3, B3, D4 classes"):
        started = time.perf_counter()
        for name in ("A3", "B3", "D4"):
            for G in FIXTURE_CLASSES[name]:
                for k in range(1, G.n + 1):
                    report = verify_mutation_invariance(G, k)
                    assert report.status == "PASS", (name, G.edges, k)
                    assert report.roundtrips_exact
                    for rep in (report.phi_report, report.psi_report):
                        for check in rep.checks:
                            assert check.coxeter_trivial is True
                            assert check.certificate is not None
        assert time.perf_counter() - started < 300.0


def test_c08_lemma_replays():
    with criterion(8, "lemma replay suite with independent certificate replay"):
        # symmetry lemma: square and pentagon chains
        for G in (SQUARE, PENTAGON):
            results = derive_t3_rotations(G)
            assert len(results) == G.n - 1
            for _, Q, cert in results:
                assert cert is not None and replay_certificate(Q, cert)
        # conjugation identities under m = 3 and m = 4
        for edges, word in (
            (((1, 2, 1),), (1, 2, -1, -2, -1, 2)),
            (((1, 2, 2),), (1, 2, -1, -2, -1, -2, 1, 2)),
        ):
            P = artin_presentation(Diagram(2, edges))
            cert = prove_trivial(P, Word(word))
            assert cert is not None and replay_certificate(P, cert)
        # triangle rotation equivalence, both directions
        P = artin_presentation(TRIANGLE_221)
        (cycle,) = chordless_cycles(TRIANGLE_221)
        t2 = tuple(r for r in P.relators if r.family == "T2")
        pair = (t_relator(cycle, 0), t_relator(cycle, 1))
        for have, want in (pair, pair[::-1]):
            Q = P.with_relators(t2 + (have,), f"only-{have.provenance}")
            cert = prove_trivial(Q, want.word)
            assert cert is not None and replay_certificate(Q, cert)
        # the displayed braid word of the weighted triangle
        cert = prove_trivial(P, Word((3, -1, 2, 1, 3, -1, -2, 1, -3, -1, -2, 1)))
        assert cert is not None and replay_certificate(P, cert)
        # weighted square rotation equivalence, both directions
        Psq = artin_presentation(SQUARE_1212)
        (sq,) = chordless_cycles(SQUARE_1212)
        t2sq = tuple(r for r in Psq.relators if r.family == "T2")
        pair = (t_relator(sq, 0), t_relator(sq, 2))
        for have, want in (pair, pair[::-1]):
            Q = Psq.with_relators(t2sq + (have,), f"only-{have.provenance}")
            cert = prove_trivial(Q, want.word)
            assert cert is not None and replay_certificate(Q, cert)
        # generator inversion into the opposite diagram, three shapes
        for G in (SQUARE, TRIANGLE_221, SQUARE_1212):
            report = verify_homomorphism(delta(G))
            assert report.status == "PASS"
            for check in report.checks:
                assert replay_certificate(delta(G).target, check.certificate)


def test_c09_negative_controls():
    with criterion(9, "negative controls and prover/quotient consistency"):
        # corrupted comparison map must fail through the quotient
        G = DYNKIN["A3"]
        good = phi(G, 2)
        images = list(good.images)
        images[0] = Word((1,))
        bad = GroupMap(good.source, good.target, tuple(images), "corrupt")
        report = verify_homomorphism(bad)
        assert report.status == "FAIL"
        assert any(c.coxeter_trivial is False for c in report.checks)
        # non-relator words are rejected by the quotient: a lone generator,
        # a braid of the wrong length, and a false commutation
        P = artin_presentation(G)
        table = quotient_table(P)
        for letters in ((1,), (1, 2), (1, 2, 1, 2, -1, -2, -1, -2),
                        (1, 2, -1, -2)):
            assert not word_trivial_in_coxeter(table, Word(letters))
        # 10,000 seeded random words per fixture class: no certificate may
        # contradict the quotient (raises inside on any violation)
        for name, G in (("A3", DYNKIN["A3"]), ("B3", TRIANGLE_221),
                        ("D4", DYNKIN["D4"])):
            stats = fuzz_soundness(artin_presentation(G), 10_000,
                                   seed=hash(name) % 10_000)
            assert stats["words"] == 10_000
            assert stats["quotient_rejected"] > 0


def test_c10_affine_conjecture_harness():
    with criterion(10, "affine mode exactness and conjecture harness"):
        with open(FIXTURES / "t4-patterns.json", encoding="utf-8") as fh:
            patterns = load_t4_patterns(json.load(fh))
        # generation succeeds with the supplied pattern library
        P = affine_artin_presentation(AFFINE_C2, patterns)
        assert P.n_generators == 3

        # exact-arithmetic t(l) against an independent symbolic oracle on
        # hand-checked rotations
        def sympy_t(weights, l):
            d = len(weights)
            prod = sympy.Integer(1)
            for t in range(d - 1):
                prod *= sympy.sqrt(weights[(l + t) % d])
            return sympy.simplify(
                sympy.expand((prod - sympy.sqrt(weights[(l + d - 1) % d])) ** 2)
            )

        mutated = mutate_diagram(AFFINE_C2, 2)
        (heavy,) = chordless_cycles(mutated, affine=True)
        assert sorted(heavy.weights) == [2, 2, 4]
        for cyc in (heavy, *chordless_cycles(TRIANGLE_221),
                    *chordless_cycles(SQUARE)):
            for l in range(len(cyc.vertices)):
                assert affine_t_value(cyc, l) == sympy_t(cyc.weights, l)
        assert [affine_t_value(heavy, l) for l in range(3)] == [2, 0, 2]

        # the invariance harness reports, and never silently
        def presenter(G):
            return affine_artin_presentation(G, patterns)

        report = verify_mutation_invariance(
            AFFINE_C2, 2,
            budget=SearchBudget(max_nodes=20_000),
            coset_cap=2_000,
            presenter=presenter,
        )
        assert report.status in ("PASS", "INCONCLUSIVE")
        payload = report.to_json()
        for rec in payload["phi"]["relators"] + payload["psi"]["relators"]:
            assert rec["coxeter_trivial"] is None  # capped, reported as unknown
            assert rec["certificate"] is not None or rec["budget_limited"]
