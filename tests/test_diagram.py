import hashlib
import json
import random
from itertools import permutations, product

import pytest
import sympy

from cluster_artin import (
    BudgetExceededError,
    CycleClass,
    Diagram,
    DiagramError,
    ExchangeMatrix,
    MutationError,
    canonical_diagram,
    canonical_form,
    chordless_cycles,
    diagram_from_matrix,
    is_finite_type,
    is_two_finite,
    mutate_diagram,
    mutate_matrix,
    mutation_class,
    opposite,
)
from cluster_artin import diagram as diagram_module
from cluster_artin.diagram import _canonical_placement, _cprime

from conftest import (
    CLASS_SIZES,
    DYNKIN,
    SQUARE,
    TRIANGLE_221,
    path_diagram,
    random_two_finite_matrix,
)


class TestExchangeMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(DiagramError):
            ExchangeMatrix(((0, 1),))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DiagramError):
            ExchangeMatrix(((1, 0), (0, 0)))

    def test_rejects_equal_signs(self):
        with pytest.raises(DiagramError):
            ExchangeMatrix(((0, 1), (1, 0)))

    def test_rejects_mismatched_zero_pattern(self):
        with pytest.raises(DiagramError):
            ExchangeMatrix(((0, 1), (0, 0)))

    def test_symmetrizer_b3(self):
        B = ExchangeMatrix(((0, 1, 0), (-1, 0, 1), (0, -2, 0)))
        d = B.symmetrizer()
        assert B.is_symmetrized_by(d)
        assert d == (2, 2, 1)

    def test_random_matrices_are_skew_symmetrizable(self, rng):
        for _ in range(50):
            B = random_two_finite_matrix(rng, rng.randint(2, 6))
            assert B.is_symmetrized_by(B.symmetrizer())


class TestDiagramFromMatrix:
    def test_smallest_case(self):
        G = diagram_from_matrix(ExchangeMatrix(((0, 1), (-1, 0))))
        assert G.edges == ((1, 2, 1),)

    def test_weight_is_product(self):
        G = diagram_from_matrix(ExchangeMatrix(((0, 1), (-2, 0))))
        assert G.edges == ((1, 2, 2),)

    def test_zero_matrix(self):
        G = diagram_from_matrix(ExchangeMatrix(((0, 0), (0, 0))))
        assert G.edges == ()

    def test_json_roundtrip_accepts_matrix(self):
        G = Diagram.from_json({"B": [[0, 1], [-3, 0]]})
        assert G.edges == ((1, 2, 3),)
        assert Diagram.from_json(G.to_json()) == G


class TestFromJsonValidation:
    @pytest.mark.parametrize("obj", [
        {"n": 3},
        [1, 2],
        {"n": 3, "edges": [[1, 2]]},
        {"n": "x", "edges": []},
        {"n": 2, "edges": [[1, 2, 1.5]]},
        {"n": 2, "edges": [[1, 2, True]]},
        {"n": True, "edges": []},
        {"n": -1, "edges": []},
        {"n": 2, "edges": [[1, 2, 1]], "B": [[0, 1], [-1.0, 0]]},
        {"B": [[0, 1], "ab"]},
    ], ids=["missing-edges", "not-an-object", "two-element-edge", "string-n",
            "fractional-weight", "boolean-weight", "boolean-n", "negative-n",
            "float-matrix-entry", "matrix-row-not-a-list"])
    def test_rejects(self, obj):
        with pytest.raises(DiagramError):
            Diagram.from_json(obj)

    def test_valid_inputs_unchanged(self):
        G = Diagram.from_json({"n": 3, "edges": [[2, 3, 2], [1, 2, 1]]})
        assert G == Diagram(3, ((1, 2, 1), (2, 3, 2)))
        assert Diagram.from_json({"n": 0, "edges": []}).n == 0


class TestMatrixMutation:
    def test_rank_two_sign_flip(self):
        B = ExchangeMatrix(((0, 1), (-1, 0)))
        assert mutate_matrix(B, 1).entries == ((0, -1), (1, 0))

    def test_a3_at_middle(self):
        B = ExchangeMatrix(((0, 1, 0), (-1, 0, 1), (0, -1, 0)))
        assert mutate_matrix(B, 2).entries == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))

    def test_involution(self, rng):
        for _ in range(100):
            B = random_two_finite_matrix(rng, rng.randint(2, 6))
            k = rng.randint(1, B.n)
            assert mutate_matrix(mutate_matrix(B, k), k).entries == B.entries

    def test_out_of_range_vertex(self):
        with pytest.raises(DiagramError):
            mutate_matrix(ExchangeMatrix(((0, 1), (-1, 0))), 3)

    def test_preserves_symmetrizer(self, rng):
        for _ in range(50):
            B = random_two_finite_matrix(rng, rng.randint(2, 5))
            d = B.symmetrizer()
            for k in range(1, B.n + 1):
                assert mutate_matrix(B, k).is_symmetrized_by(d)


class TestIsTwoFinite:
    def test_weight_three_is_fine(self):
        assert is_two_finite(ExchangeMatrix(((0, 1), (-3, 0))))

    def test_weight_four_is_not(self):
        assert not is_two_finite(ExchangeMatrix(((0, 2), (-2, 0))))

    def test_a3_path(self):
        assert is_two_finite(ExchangeMatrix(((0, 1, 0), (-1, 0, 1), (0, -1, 0))))


class TestDiagramMutation:
    def test_new_edge_from_weight_one_path(self):
        G = Diagram(3, ((1, 2, 1), (2, 3, 1)))
        assert mutate_diagram(G, 2) == Diagram(3, ((2, 1, 1), (3, 2, 1), (1, 3, 1)))

    def test_new_edge_weight_two(self):
        G = Diagram(3, ((1, 2, 2), (2, 3, 1)))
        assert mutate_diagram(G, 2).edge_between(1, 3) == (1, 3, 2)

    def test_single_edge_reverses(self):
        G = Diagram(2, ((1, 2, 3),))
        assert mutate_diagram(G, 2) == Diagram(2, ((2, 1, 3),))

    def test_cprime_table_against_symbolic_identity(self):
        # Independent check of the weight update on every configuration with
        # weights a, b in 1..3 and third side c in 0..3: solve
        # (+/-)sqrt(c) + sqrt(c') = sqrt(ab) over exact symbolic radicals,
        # and expect MutationError exactly where sqrt(abc) is irrational.
        for a, b, c, closes in product((1, 2, 3), (1, 2, 3), range(4),
                                       (False, True)):
            if not sympy.sqrt(a * b * c).is_integer:
                with pytest.raises(MutationError):
                    _cprime(a, b, c, closes)
                continue
            cp, direction = _cprime(a, b, c, closes)
            root_ab = sympy.sqrt(a * b)
            root_c = sympy.sqrt(c)
            signed = root_ab - root_c if closes else root_ab + root_c
            assert sympy.simplify(signed**2 - cp) == 0
            if closes and c != 0:
                expected_dir = (a * b > c) - (a * b < c)
            elif cp == 0:
                expected_dir = 0
            else:
                expected_dir = 1
            assert direction == expected_dir

    def test_rejects_non_square_product(self):
        # weights (1, 2) around a path with no realizing matrix
        from cluster_artin import MutationError

        G = Diagram(3, ((1, 2, 1), (2, 3, 2), (3, 1, 1)))
        with pytest.raises(MutationError):
            mutate_diagram(G, 2)

    def test_matrix_diagram_commutation_seeded(self, rng):
        for _ in range(200):
            B = random_two_finite_matrix(rng, rng.randint(2, 6))
            k = rng.randint(1, B.n)
            assert diagram_from_matrix(mutate_matrix(B, k)) == mutate_diagram(
                diagram_from_matrix(B), k
            )

    def test_involution_on_fixture_classes(self):
        for G0 in DYNKIN.values():
            for G in mutation_class(G0):
                for k in range(1, G.n + 1):
                    assert mutate_diagram(mutate_diagram(G, k), k) == G


class TestChordlessCycles:
    def test_square_example(self):
        (c,) = chordless_cycles(SQUARE)
        assert c.vertices == (1, 2, 3, 4)
        assert c.weights == (1, 1, 1, 1)
        assert c.cycle_class is CycleClass.ALL_WEIGHT_ONE

    def test_triangle_example(self):
        (c,) = chordless_cycles(TRIANGLE_221)
        assert c.vertices == (1, 2, 3)
        assert c.weights == (2, 1, 2)
        assert c.cycle_class is CycleClass.TRIANGLE_TWO_TWO_ONE

    def test_square_two_two(self):
        (c,) = chordless_cycles(Diagram(4, ((1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 1, 2))))
        assert c.cycle_class is CycleClass.SQUARE_TWO_TWO

    def test_tree_has_none(self):
        assert chordless_cycles(DYNKIN["A4"]) == ()
        assert chordless_cycles(DYNKIN["D4"]) == ()

    def test_unoriented_cycle_rejected_in_finite_mode(self):
        G = Diagram(3, ((1, 2, 1), (2, 3, 1), (1, 3, 1)))
        with pytest.raises(DiagramError):
            chordless_cycles(G)
        (c,) = chordless_cycles(G, affine=True)
        assert not c.oriented
        assert c.cycle_class is CycleClass.AFFINE_OTHER

    def test_reversed_cycle_lists_along_orientation(self):
        G = Diagram(3, ((2, 1, 1), (1, 3, 1), (3, 2, 1)))
        (c,) = chordless_cycles(G)
        assert c.vertices == (1, 3, 2)

    def test_chord_splits_square(self):
        G = Diagram(4, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (1, 3, 1)))
        cycles = chordless_cycles(G, affine=True)
        assert sorted(c.vertices for c in cycles) == [(1, 2, 3), (1, 3, 4)]


class TestOpposite:
    def test_single_edge(self):
        assert opposite(Diagram(2, ((1, 2, 1),))) == Diagram(2, ((2, 1, 1),))

    def test_square(self):
        assert opposite(SQUARE) == Diagram(4, ((2, 1, 1), (3, 2, 1), (4, 3, 1), (1, 4, 1)))

    def test_involution_and_commutes_with_mutation(self):
        for G0 in (DYNKIN["A3"], DYNKIN["B3"], TRIANGLE_221):
            for G in mutation_class(G0):
                assert opposite(opposite(G)) == G
                for k in range(1, G.n + 1):
                    assert opposite(mutate_diagram(G, k)) == mutate_diagram(
                        opposite(G), k
                    )


class TestCanonicalForm:
    def test_relabelings_agree(self):
        perm = {1: 3, 2: 1, 3: 4, 4: 2}
        assert canonical_form(SQUARE) == canonical_form(SQUARE.relabel(perm))

    def test_reversed_path_agrees(self):
        a = Diagram(3, ((1, 2, 1), (2, 3, 1)))
        b = Diagram(3, ((3, 2, 1), (2, 1, 1)))
        assert canonical_form(a) == canonical_form(b)

    def test_path_differs_from_cycle(self):
        path = Diagram(3, ((1, 2, 1), (2, 3, 1)))
        cycle = Diagram(3, ((1, 2, 1), (2, 3, 1), (3, 1, 1)))
        assert canonical_form(path) != canonical_form(cycle)

    def test_canonical_diagram_is_stable(self):
        perm = {1: 2, 2: 4, 3: 1, 4: 3}
        assert canonical_diagram(SQUARE) == canonical_diagram(SQUARE.relabel(perm))

    def test_bound(self):
        big = Diagram(13, tuple((i, i + 1, 1) for i in range(1, 13)))
        with pytest.raises(DiagramError):
            canonical_form(big)

    def test_large_path_canonicalizes(self):
        a = Diagram(9, tuple((i, i + 1, 1) for i in range(1, 9)))
        perm = {i: 10 - i for i in range(1, 10)}
        assert canonical_form(a) == canonical_form(a.relabel(perm))


# Dynkin diagrams beyond conftest's, one orientation each.
MORE_DYNKIN = {
    **{f"A{n}": path_diagram(n) for n in range(3, 9)},
    "B4": Diagram(4, ((1, 2, 1), (2, 3, 1), (3, 4, 2))),
    "D4": DYNKIN["D4"],
    "F4": Diagram(4, ((1, 2, 1), (2, 3, 2), (3, 4, 1))),
    "E6": Diagram(6, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (3, 6, 1))),
    "E7": Diagram(7, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1),
                      (3, 7, 1))),
}

# Published mutation-class sizes: A_n from Torkildsen (arXiv:0801.3762),
# E6 and E7 from the finite mutation-type census.  E8 (1574 members, a few
# seconds) is left out to keep the suite quick.
PUBLISHED_CLASS_SIZES = {
    "A3": 4, "A4": 6, "A5": 19, "A6": 49, "A7": 150, "A8": 442,
    "E6": 67, "E7": 416,
}


def brute_force_placement(G: Diagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reference canonical placement: the first permutation, in lexicographic
    order, whose column-wise encoding is least."""
    best_enc = best_perm = None
    for perm in permutations(range(1, G.n + 1)):
        enc = tuple(G.arrow(perm[p], perm[q]) - G.arrow(perm[q], perm[p])
                    for q in range(G.n) for p in range(q))
        if best_enc is None or enc < best_enc:
            best_enc, best_perm = enc, perm
    return best_perm, best_enc


class TestCanonicalPlacementAgainstBruteForce:
    @pytest.mark.parametrize("name", ("A5", "B4", "F4", "D4", "E6"))
    def test_every_class_member_and_relabelling(self, name):
        rng = random.Random(f"canonical:{name}")
        for D in mutation_class(MORE_DYNKIN[name]):
            copies = [D]
            for _ in range(2):
                labels = list(range(1, D.n + 1))
                rng.shuffle(labels)
                copies.append(D.relabel(dict(zip(range(1, D.n + 1), labels))))
            for G in copies:
                assert _canonical_placement(G) == brute_force_placement(G)


class TestMutationClass:
    @pytest.mark.parametrize("name", PUBLISHED_CLASS_SIZES)
    def test_published_class_sizes(self, name):
        size = len(mutation_class(MORE_DYNKIN[name]))
        assert size == PUBLISHED_CLASS_SIZES[name]

    # One search for the start and one per mutation of it, then n - 1 for
    # every other member, which is not mutated back at the vertex it was
    # reached by; only a new member is relabelled.  The digests are sha256 of
    # json.dumps([D.to_json() for D in members]) as the class BFS returned
    # them when it searched twice per new member (344 and 3,329 searches).
    @pytest.mark.parametrize("name, searches, digest", [
        ("A6", 247,
         "6c6258ec602d2f0b962b9b36cf30ce4d1c3493f35327d6edfb4b2f2ca6fe8246"),
        ("E7", 2498,
         "085847ad17aead042723e02217419a4b363f568b8b11f66f91dd6215354e9e97"),
    ])
    def test_one_canonical_search_per_diagram_met(self, monkeypatch, name,
                                                  searches, digest):
        calls = []
        relabels = []
        relabel = Diagram.relabel

        def counted(G):
            calls.append(G)
            return _canonical_placement(G)

        def counted_relabel(G, perm):
            relabels.append(G)
            return relabel(G, perm)

        monkeypatch.setattr(diagram_module, "_canonical_placement", counted)
        monkeypatch.setattr(Diagram, "relabel", counted_relabel)
        members = mutation_class(MORE_DYNKIN[name])
        n = MORE_DYNKIN[name].n
        assert len(calls) == searches == 1 + n + (len(members) - 1) * (n - 1)
        assert len(relabels) == len(members)
        blob = json.dumps([D.to_json() for D in members]).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_single_edge_class(self):
        assert len(mutation_class(Diagram(2, ((1, 2, 1),)))) == 1

    def test_a3_contains_cycle(self):
        members = mutation_class(DYNKIN["A3"])
        assert len(members) == CLASS_SIZES["A3"]
        assert any(len(D.edges) == 3 for D in members)

    def test_golden_sizes(self):
        for name, size in CLASS_SIZES.items():
            assert len(mutation_class(DYNKIN[name])) == size, name

    def test_rejects_disconnected(self):
        with pytest.raises(DiagramError):
            mutation_class(Diagram(3, ((1, 2, 1),)))

    def test_budget_exhaustion_is_distinct(self):
        with pytest.raises(BudgetExceededError):
            mutation_class(DYNKIN["A4"], cap=2)


class TestIsFiniteType:
    def test_dynkin_paths(self):
        assert is_finite_type(DYNKIN["A3"])
        assert is_finite_type(Diagram(3, ((1, 2, 1), (2, 3, 1), (3, 1, 1))))

    def test_heavy_square_is_not(self):
        G = Diagram(4, ((1, 2, 2), (2, 3, 2), (3, 4, 2), (4, 1, 2)))
        assert not is_finite_type(G)

    def test_affine_is_not(self):
        assert not is_finite_type(Diagram(3, ((1, 2, 2), (2, 3, 2))))

    def test_requires_connected(self):
        with pytest.raises(DiagramError):
            is_finite_type(Diagram(3, ((1, 2, 1),)))


class TestDiagramValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(DiagramError):
            Diagram(2, ((1, 1, 1),))

    def test_rejects_parallel_edges(self):
        with pytest.raises(DiagramError):
            Diagram(2, ((1, 2, 1), (2, 1, 1)))

    def test_rejects_bad_weight(self):
        with pytest.raises(DiagramError):
            Diagram(2, ((1, 2, 0),))

    def test_dot_export_mentions_every_edge(self):
        dot = SQUARE.to_dot()
        assert dot.startswith("digraph")
        assert '1 -> 2 [label="1"]' in dot
