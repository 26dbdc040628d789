import json
from itertools import product

import pytest
import sympy

from cluster_artin import (
    Diagram,
    T4Pattern,
    UnsupportedCycleError,
    affine_artin_presentation,
    affine_m_value,
    affine_t_value,
    artin_presentation,
    chordless_cycles,
    load_t4_patterns,
    mutate_diagram,
    verify_mutation_invariance,
)
from cluster_artin.mapping import phi
from cluster_artin.presentation import INFINITE_M, m_value, t4_template_words
from cluster_artin.verifier import SearchBudget

from conftest import AFFINE_C2, FIXTURES, SQUARE, SQUARE_1212, TRIANGLE_221


def sympy_t_value(weights, l):
    """Independent symbolic oracle for the cycle exponent datum."""
    d = len(weights)
    prod = sympy.Integer(1)
    for t in range(d - 1):
        prod *= sympy.sqrt(weights[(l + t) % d])
    value = sympy.expand((prod - sympy.sqrt(weights[(l + d - 1) % d])) ** 2)
    return sympy.simplify(value)


class TestClosedFormExponent:
    def test_every_triangle_rotation_against_sympy(self):
        # all 64 oriented triangles with weights 1..4, each rotation l:
        # a value exactly where the oracle is an integer in 0..3
        for weights in product(range(1, 5), repeat=3):
            G = Diagram(3, tuple(zip((1, 2, 3), (2, 3, 1), weights)))
            (cycle,) = chordless_cycles(G, affine=True)
            assert cycle.weights == weights
            for l in range(3):
                oracle = sympy_t_value(weights, l)
                if oracle.is_Integer and 0 <= oracle <= 3:
                    assert affine_t_value(cycle, l) == oracle
                else:
                    with pytest.raises(UnsupportedCycleError):
                        affine_t_value(cycle, l)


class TestAffineExponents:
    @pytest.mark.parametrize("diagram", [TRIANGLE_221, SQUARE, SQUARE_1212])
    def test_matches_symbolic_oracle(self, diagram):
        for cycle in chordless_cycles(diagram, affine=True):
            for l in range(len(cycle.vertices)):
                assert affine_t_value(cycle, l) == sympy_t_value(cycle.weights, l)

    def test_all_weight_one_reproduces_commutation(self):
        (c,) = chordless_cycles(SQUARE)
        assert [affine_m_value(c, l) for l in range(4)] == [2, 2, 2, 2]

    def test_triangle_values(self):
        (c,) = chordless_cycles(TRIANGLE_221)  # weights (2, 1, 2)
        assert [affine_t_value(c, l) for l in range(3)] == [0, 0, 1]
        assert [affine_m_value(c, l) for l in range(3)] == [2, 2, 3]

    def test_heavy_triangle_from_affine_mutation(self):
        mutated = mutate_diagram(AFFINE_C2, 2)
        (c,) = chordless_cycles(mutated, affine=True)
        assert sorted(c.weights) == [2, 2, 4]
        values = [affine_t_value(c, l) for l in range(3)]
        assert sorted(values) == [0, 2, 2]
        for l in range(3):
            assert values[l] == sympy_t_value(c.weights, l)

    def test_unsupported_cycle(self):
        G = Diagram(3, ((1, 2, 2), (2, 3, 2), (3, 1, 2)))
        (c,) = chordless_cycles(G, affine=True)
        with pytest.raises(UnsupportedCycleError):
            affine_t_value(c, 0)


class TestAffinePresentation:
    def test_infinite_pairs_skip_t2(self):
        mutated = mutate_diagram(AFFINE_C2, 2)
        assert m_value(mutated, 1, 3, affine=True) == INFINITE_M
        P = affine_artin_presentation(mutated)
        assert all(r.provenance != "(1,3)" for r in P.relators)
        assert sum(r.family == "T2" for r in P.relators) == 2

    def test_zero_exponent_matches_finite_t3(self):
        finite = {r.word.letters
                  for r in artin_presentation(TRIANGLE_221).relators
                  if r.family == "T3"}
        affine = {r.word.letters
                  for r in affine_artin_presentation(TRIANGLE_221).relators
                  if r.family == "AffineT3" and "^2" in r.provenance}
        assert affine == finite

    def test_triangle_gains_the_braid_relation(self):
        P = affine_artin_presentation(TRIANGLE_221)
        braid3 = [r for r in P.relators if "^3" in r.provenance]
        assert len(braid3) == 1
        # <s_3, p(3,1)>^3 with p(3,1) = s_1^-1 s_2 s_1
        assert braid3[0].word.letters == (
            3, -1, 2, 1, 3, -1, -2, 1, -3, -1, -2, 1
        )

    def test_unoriented_cycles_get_no_relation(self):
        G = Diagram(3, ((1, 2, 1), (2, 3, 1), (1, 3, 1)))
        P = affine_artin_presentation(G)
        assert all(r.family != "AffineT3" for r in P.relators)


class TestT4Patterns:
    def test_template_row_shapes(self):
        assert t4_template_words(1, 4) == ((2, 1, -2, -4, 3, 4, 2, -1, -2, -4, -3, 4),)
        assert len(t4_template_words(3, 4)) == 2
        assert len(t4_template_words(5, 3)) == 2
        row2 = t4_template_words(2, 4)[0]
        assert row2 == (2, -3, 1, 4, -1, 3, -2, -3, 1, -4, -1, 3)
        # Row 4 at four vertices: the commutator of s1 with s2^-1 s4 s3 s4^-1 s2.
        assert t4_template_words(4, 4) == (
            (1, -2, 4, 3, -4, 2, -1, -2, 4, -3, -4, 2),)

    def test_unknown_row(self):
        from cluster_artin.presentation import PresentationError

        with pytest.raises(PresentationError):
            t4_template_words(6, 4)

    def test_pattern_matching_and_instantiation(self):
        sink_middle = Diagram(3, ((1, 2, 2), (3, 2, 2)))
        pattern = T4Pattern(5, sink_middle)
        P = affine_artin_presentation(sink_middle, (pattern,))
        t4 = [r for r in P.relators if r.family == "T4"]
        # the shape has a flip automorphism: two induced matches, two
        # relators each
        assert [r.provenance for r in t4] == [
            "row5.0@(1, 2, 3)", "row5.0@(3, 2, 1)",
            "row5.1@(1, 2, 3)", "row5.1@(3, 2, 1)",
        ]
        assert t4[0].word.letters == (2, -1, 2, 3, -2, 1, -2, -1, 2, -3, -2, 1)

    def test_series_path_has_no_sink_middle_match(self):
        pattern = T4Pattern(5, Diagram(3, ((1, 2, 2), (3, 2, 2))))
        P = affine_artin_presentation(AFFINE_C2, (pattern,))
        assert all(r.family != "T4" for r in P.relators)

    def test_loading_fixture_library(self):
        with open(FIXTURES / "t4-patterns.json", encoding="utf-8") as fh:
            patterns = load_t4_patterns(json.load(fh))
        assert len(patterns) == 1 and patterns[0].row == 5


class TestConjectureHarness:
    def test_affine_invariance_report_is_never_silent(self):
        with open(FIXTURES / "t4-patterns.json", encoding="utf-8") as fh:
            patterns = load_t4_patterns(json.load(fh))

        def presenter(G):
            return affine_artin_presentation(G, patterns)

        report = verify_mutation_invariance(
            AFFINE_C2, 2,
            budget=SearchBudget(max_nodes=20_000),
            coset_cap=2_000,
            presenter=presenter,
        )
        assert report.status in ("PASS", "INCONCLUSIVE")
        assert report.roundtrips_exact
        obj = report.to_json()
        # capped quotient must be reported as unknown, not as a verdict
        assert obj["phi"]["coxeter_order"] is None
        for rec in obj["phi"]["relators"] + obj["psi"]["relators"]:
            assert rec["coxeter_trivial"] is None
            assert rec["abelianization_ok"] is True

    def test_affine_phi_transport_works(self):
        f = phi(AFFINE_C2, 2, presenter=affine_artin_presentation)
        assert f.source.n_generators == f.target.n_generators == 3
        for r in f.source.relators:
            from cluster_artin.mapping import transport

            assert transport(f, r.word).max_generator() <= 3
