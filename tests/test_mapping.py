import functools
import json

import pytest

from cluster_artin import (
    Diagram,
    MappingError,
    Word,
    affine_artin_presentation,
    artin_presentation,
    compose,
    delta,
    load_t4_patterns,
    mutate_diagram,
    mutation_class,
    opposite,
    phi,
    psi,
    transport,
)

from conftest import AFFINE_C2, DYNKIN, FIXTURES, SQUARE, TRIANGLE_221

B4 = Diagram(4, ((1, 2, 1), (2, 3, 1), (3, 4, 2)))
F4 = Diagram(4, ((1, 2, 1), (2, 3, 2), (3, 4, 1)))


class TestPhi:
    def test_arrow_into_k_conjugates(self):
        G = DYNKIN["A3"]  # 1 -> 2 -> 3
        f = phi(G, 2)
        assert f.images[0].letters == (2, 1, -2)

    def test_arrow_out_of_k_is_identity(self):
        f = phi(DYNKIN["A3"], 2)
        assert f.images[2].letters == (3,)

    def test_k_maps_to_itself(self):
        f = phi(DYNKIN["A3"], 2)
        assert f.images[1].letters == (2,)

    def test_source_is_mutated_presentation(self):
        G = DYNKIN["A3"]
        f = phi(G, 2)
        assert f.source.label == artin_presentation(mutate_diagram(G, 2)).label
        assert f.target.label == artin_presentation(G).label


class TestDelta:
    def test_images_are_inverses(self):
        d = delta(SQUARE)
        assert all(w.letters == (-(i + 1),) for i, w in enumerate(d.images))

    def test_double_delta_is_identity_on_generators(self):
        d1 = delta(SQUARE)
        d2 = delta(opposite(SQUARE))
        both = compose(d2, d1)
        assert all(
            both.images[i].letters == (i + 1,) for i in range(SQUARE.n)
        )

    def test_transport_example(self):
        d = delta(SQUARE)
        assert transport(d, Word((1, 2))).letters == (-1, -2)


def assert_psi_is_the_composite(G, k, presenter=artin_presentation):
    """psi(G, k) == Delta' . phi_op . Delta, phi_op based at op(mu_k(G))."""
    base_op = mutate_diagram(opposite(G), k)
    composite = compose(delta(base_op, presenter),
                        compose(phi(base_op, k, presenter), delta(G, presenter)))
    g = psi(G, k, presenter)
    assert g.source == composite.source
    assert g.target == composite.target
    assert g.images == composite.images


class TestPsi:
    def test_equals_the_composite_through_the_opposite(self):
        for G in (DYNKIN["A3"], DYNKIN["B3"], DYNKIN["D4"], B4, F4):
            for member in mutation_class(G):
                for k in range(1, member.n + 1):
                    assert_psi_is_the_composite(member, k)
        with open(FIXTURES / "t4-patterns.json", encoding="utf-8") as fh:
            patterns = load_t4_patterns(json.load(fh))
        affine = functools.partial(affine_artin_presentation,
                                   t4_patterns=patterns)
        for k in range(1, AFFINE_C2.n + 1):
            assert_psi_is_the_composite(AFFINE_C2, k, affine)

    def test_images_conjugate_with_inverse(self):
        G = DYNKIN["A3"]
        g = psi(G, 2)
        # arrow 1 -> 2 in G: psi(s_1) = r_2^-1 r_1 r_2
        assert g.images[0].letters == (-2, 1, 2)
        assert g.images[1].letters == (2,)
        assert g.images[2].letters == (3,)

    def test_roundtrips_are_free_identities_everywhere(self):
        for name in ("A3", "B3", "D4"):
            for G in mutation_class(DYNKIN[name]):
                for k in range(1, G.n + 1):
                    f, g = phi(G, k), psi(G, k)
                    fg = compose(f, g)
                    gf = compose(g, f)
                    for i in range(G.n):
                        assert gf.images[i].letters == (i + 1,)
                        assert fg.images[i].letters == (i + 1,)


class TestTransport:
    def test_empty_word(self):
        assert transport(phi(DYNKIN["A3"], 2), Word(())).letters == ()

    def test_alphabet_mismatch(self):
        with pytest.raises(MappingError):
            transport(phi(DYNKIN["A3"], 2), Word((4,)))

    def test_lemma_case_b_expansion(self):
        # braid image for a pair (i, j) with i -> k and j away from k,
        # frozen from hand expansion of <t_i t_j>^3 <t_j t_i>^-3
        G = DYNKIN["A3"]
        f = phi(G, 2)
        braid_13 = next(
            r for r in f.source.relators if r.provenance == "(1,3)"
        )
        image = transport(f, braid_13.word)
        assert image.letters == (2, 1, -2, 3, 2, 1, -2, -3, 2, -1, -2, -3)

    def test_respects_composition(self):
        G = TRIANGLE_221
        f, g = phi(G, 1), psi(G, 1)
        gf = compose(g, f)
        for r in f.source.relators:
            assert transport(g, transport(f, r.word)) == transport(gf, r.word)

    def test_compose_rejects_mismatched_alphabets(self):
        with pytest.raises(MappingError):
            compose(phi(DYNKIN["A3"], 2), phi(DYNKIN["A3"], 2))


class TestMapExport:
    def test_json_schema(self):
        d = delta(DYNKIN["A2"])
        assert d.to_json() == {
            "label": "Delta",
            "images": [[[1, -1]], [[2, -1]]],
        }

    def test_phi_export_contains_conjugation(self):
        f = phi(DYNKIN["A3"], 2)
        assert f.to_json()["images"][0] == [[2, 1], [1, 1], [2, -1]]


class TestOppositeCommutation:
    def test_psi_needs_the_commuting_square(self):
        # (op . mu_k) and (mu_k . op) agree on the nose, which the composite
        # Delta' . phi_op . Delta relies on
        for G in mutation_class(DYNKIN["D4"]):
            for k in range(1, G.n + 1):
                assert mutate_diagram(opposite(G), k) == opposite(
                    mutate_diagram(G, k)
                )
