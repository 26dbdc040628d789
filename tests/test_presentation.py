import json

import pytest
from hypothesis import given, strategies as st

from cluster_artin import (
    Diagram,
    DiagramError,
    NotFiniteTypeError,
    PresentationError,
    Word,
    affine_artin_presentation,
    artin_presentation,
    braid_relator,
    chordless_cycles,
    coxeter_presentation,
    coxeter_quotient,
    load_t4_patterns,
    m_value,
    mutation_class,
    p_word,
    t3_qualifies,
    t_relator,
)
from cluster_artin.presentation import (
    INFINITE_M,
    cyclic_reduce,
    free_reduce,
    least_cyclic_rotation,
    splice,
)

from cluster_artin import presentation as presentation_module

from conftest import DYNKIN, FIXTURES, SQUARE, TRIANGLE_221

letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
letter_seqs = st.lists(letters, max_size=24).map(tuple)


class TestWords:
    def test_eager_reduction(self):
        assert Word((1, 2, -2, -1, 3)).letters == (3,)

    def test_mul_and_inverse(self):
        w = Word((1, 2))
        assert (w * w.inverse()).letters == ()
        assert w.inverse().letters == (-2, -1)

    def test_conjugate(self):
        assert Word((2,)).conjugate(Word((1,))).letters == (1, 2, -1)

    def test_letters_read_once_from_any_iterable(self):
        assert Word(x for x in (1, 2, -2, 3)).letters == (1, 3)
        assert Word([2, -1]).letters == (2, -1)

    def test_rejects_zero_letter(self):
        with pytest.raises(PresentationError):
            Word((0,))

    def test_text_roundtrip(self):
        w = Word((1, -2, 3))
        assert w.to_text() == "g1 G2 g3"
        assert Word.from_text(w.to_text()) == w

    @pytest.mark.parametrize("text", (
        "g-3", "g+3", "G-3", "g1_0", "g 1_0", "g\u0663", "G\uff13", "g\u00b2",
        "g", "G", "g0", "x1", "g1 h2", "g 3",
    ))
    def test_text_rejects_all_but_ascii_digit_tokens(self, text):
        with pytest.raises(PresentationError):
            Word.from_text(text)

    def test_text_reads_ascii_digits(self):
        assert Word.from_text("g12 G3  g07").letters == (12, -3, 7)
        assert Word.from_text("").letters == ()

    def test_json_roundtrip(self):
        w = Word((1, -2))
        assert w.to_json() == [[1, 1], [2, -1]]
        assert Word.from_json(w.to_json()) == w

    @pytest.mark.parametrize("obj", (
        5, [5], [[1]], [[1, 1, 1]], [[0, 1]], [[-1, 1]], [[1, 2]],
        [[1.5, 1]], [[True, 1]], [[1, "1"]],
    ))
    def test_json_rejects_malformed_words(self, obj):
        with pytest.raises(PresentationError):
            Word.from_json(obj)

    @given(letter_seqs)
    def test_reduce_idempotent(self, seq):
        once = free_reduce(seq)
        assert free_reduce(once) == once

    @given(letter_seqs)
    def test_inverse_cancels(self, seq):
        w = Word(seq)
        assert (w * w.inverse()).letters == ()
        assert (w.inverse() * w).letters == ()

    @given(letter_seqs, letter_seqs, st.integers(min_value=0, max_value=30))
    def test_splice_matches_naive_reduction(self, base, ins, cut):
        word = free_reduce(base)
        other = free_reduce(ins)
        pos = min(cut, len(word))
        assert splice(word, pos, other) == free_reduce(
            word[:pos] + other + word[pos:]
        )

    @given(letter_seqs)
    def test_least_cyclic_rotation_is_rotation_invariant(self, seq):
        w = free_reduce(seq)
        if not w:
            return
        rotations = {least_cyclic_rotation(w[i:] + w[:i]) for i in range(len(w))}
        # all rotations of a cyclically reduced word share the key
        core = least_cyclic_rotation(w)
        if len(core) == len(w):
            assert rotations == {core}
        # the least of every rotation of the cyclic core
        reduced = cyclic_reduce(w)[0]
        assert core == min(reduced[i:] + reduced[:i]
                           for i in range(len(reduced)))


class TestMValue:
    def test_table(self):
        G = Diagram(4, ((1, 2, 1), (2, 3, 2), (3, 4, 3)))
        assert m_value(G, 1, 4) == 2
        assert m_value(G, 1, 2) == 3
        assert m_value(G, 2, 3) == 4
        assert m_value(G, 3, 4) == 6

    def test_infinite_only_in_affine_mode(self):
        G = Diagram(2, ((1, 2, 4),))
        assert m_value(G, 1, 2, affine=True) == INFINITE_M
        with pytest.raises(NotFiniteTypeError):
            m_value(G, 1, 2)

    def test_rejects_equal_vertices(self):
        with pytest.raises(PresentationError):
            m_value(DYNKIN["A2"], 1, 1)


class TestMTable:
    BUILDERS = {
        "artin": artin_presentation,
        "coxeter": coxeter_presentation,
        "affine": affine_artin_presentation,
    }

    @pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS.keys())
    @pytest.mark.parametrize("name", ("A4", "B3", "D4", "G2"))
    def test_one_m_value_call_per_pair(self, monkeypatch, builder, name):
        G = DYNKIN[name]
        calls = []

        def counted(D, i, j, affine=False):
            calls.append(frozenset((i, j)))
            return m_value(D, i, j, affine)

        monkeypatch.setattr(presentation_module, "m_value", counted)
        P = builder(G)
        assert len(calls) == len(set(calls)) == G.n * (G.n - 1) // 2
        assert P.m_table == tuple(
            tuple(0 if i == j else m_value(G, i, j) for j in range(1, G.n + 1))
            for i in range(1, G.n + 1))

    @pytest.mark.parametrize("name", sorted(DYNKIN))
    def test_t2_relators_one_per_pair_in_order(self, name):
        G = DYNKIN[name]
        t2 = [r for r in artin_presentation(G).relators if r.family == "T2"]
        assert t2 == [braid_relator(i, j, m_value(G, i, j))
                      for i in range(1, G.n + 1) for j in range(i + 1, G.n + 1)]

    def test_affine_skips_infinite_pairs(self):
        G = Diagram(3, ((1, 2, 4), (2, 3, 1)))
        P = affine_artin_presentation(G)
        assert P.m_table[0][1] == P.m_table[1][0] == INFINITE_M
        assert [r.provenance for r in P.relators if r.family == "T2"] == [
            "(1,3)", "(2,3)"]


class TestBraidRelator:
    def test_m3(self):
        assert braid_relator(1, 2, 3).word.letters == (1, 2, 1, -2, -1, -2)

    def test_m4(self):
        assert braid_relator(1, 2, 4).word.letters == (1, 2, 1, 2, -1, -2, -1, -2)

    def test_m2_is_commutator(self):
        assert braid_relator(1, 2, 2).word.letters == (1, 2, -1, -2)

    def test_infinite_m_has_no_relator(self):
        with pytest.raises(PresentationError):
            braid_relator(1, 2, INFINITE_M)


class TestCycleWords:
    def test_square_p_word(self):
        (c,) = chordless_cycles(SQUARE)
        assert p_word(c, 0).letters == (-2, -3, 4, 3, 2)

    def test_triangle_p_word(self):
        (c,) = chordless_cycles(TRIANGLE_221)
        assert p_word(c, 0).letters == (-2, 3, 2)

    def test_p_word_length_is_2d_minus_3(self):
        for G in (SQUARE, TRIANGLE_221):
            (c,) = chordless_cycles(G)
            d = len(c.vertices)
            for a in range(d):
                assert len(p_word(c, a)) == 2 * (d - 2) + 1

    def test_square_t_relator_matches_display(self):
        (c,) = chordless_cycles(SQUARE)
        assert t_relator(c, 0).word.letters == (
            1, -2, -3, 4, 3, 2, -1, -2, -3, -4, 3, 2
        )

    def test_triangle_t_relator_is_the_commutator(self):
        (c,) = chordless_cycles(TRIANGLE_221)
        s, p = Word((1,)), p_word(c, 0)
        assert t_relator(c, 0).word == s * p * s.inverse() * p.inverse()
        assert t_relator(c, 0).word.letters == (1, -2, 3, 2, -1, -2, -3, 2)

    def test_rotation_is_relabelled_shift(self):
        cycle = Diagram(3, ((1, 2, 1), (2, 3, 1), (3, 1, 1)))
        (c,) = chordless_cycles(cycle)
        w0 = t_relator(c, 0).word.letters
        w1 = t_relator(c, 1).word.letters
        shift = {1: 2, 2: 3, 3: 1}
        assert w1 == tuple((1 if x > 0 else -1) * shift[abs(x)] for x in w0)

    def test_t3_conditions(self):
        (c,) = chordless_cycles(TRIANGLE_221)
        # weights (2, 1, 2): rotations closing on a weight-2 edge qualify
        assert [t3_qualifies(c, a) for a in range(3)] == [True, True, False]
        (c4,) = chordless_cycles(SQUARE)
        assert all(t3_qualifies(c4, a) for a in range(4))


class TestArtinPresentation:
    def test_square_relator_census(self):
        P = artin_presentation(SQUARE)
        braids = [r for r in P.relators if r.family == "T2" and len(r.word) == 6]
        commuting = [r for r in P.relators if r.family == "T2" and len(r.word) == 4]
        t3 = [r for r in P.relators if r.family == "T3"]
        assert len(braids) == 4 and len(commuting) == 2 and len(t3) == 4
        assert {r.provenance for r in commuting} == {"(1,3)", "(2,4)"}

    def test_triangle_relator_census(self):
        P = artin_presentation(TRIANGLE_221)
        ms = sorted(len(r.word) // 2 for r in P.relators if r.family == "T2")
        assert ms == [3, 4, 4]
        assert sum(r.family == "T3" for r in P.relators) == 2

    def test_single_edge(self):
        P = artin_presentation(Diagram(2, ((1, 2, 1),)))
        assert len(P.relators) == 1
        assert P.relators[0].word.letters == (1, 2, 1, -2, -1, -2)

    def test_minimal_t3(self):
        P = artin_presentation(SQUARE, minimal_t3=True)
        assert sum(r.family == "T3" for r in P.relators) == 1

    def test_relators_nonempty_and_reduced(self):
        for G0 in DYNKIN.values():
            P = artin_presentation(G0)
            for r in P.relators:
                assert r.word.letters
                assert free_reduce(r.word.letters) == r.word.letters

    def test_relabelling_invariance(self):
        # the relator sets agree after renaming, up to inversion (pair
        # relators are emitted with i < j, so a relabelling can flip one)
        perm = {1: 4, 2: 2, 3: 1, 4: 3}
        P = artin_presentation(SQUARE)
        Q = artin_presentation(SQUARE.relabel(perm))

        def undirected_key(letters):
            inv = tuple(-x for x in reversed(letters))
            return min(least_cyclic_rotation(letters), least_cyclic_rotation(inv))

        def rename(letters):
            return tuple((1 if x > 0 else -1) * perm[abs(x)] for x in letters)

        ours = sorted(undirected_key(rename(r.word.letters)) for r in P.relators)
        theirs = sorted(undirected_key(r.word.letters) for r in Q.relators)
        assert ours == theirs

    def test_rejects_non_finite_type(self):
        with pytest.raises(NotFiniteTypeError):
            artin_presentation(Diagram(4, ((1, 2, 2), (2, 3, 2), (3, 4, 2), (4, 1, 2))))


class TestCoxeterPresentation:
    def test_single_edge(self):
        P = coxeter_presentation(Diagram(2, ((1, 2, 1),)))
        words = {r.word.letters for r in P.relators}
        assert words == {(1, 1), (2, 2), (1, 2, 1, 2, 1, 2)}

    def test_triangle_exponents(self):
        P = coxeter_presentation(TRIANGLE_221)
        r3 = [r for r in P.relators if r.family == "R3b"]
        assert len(r3) == 3
        # rotation words have length 4; exponent 2 at the weight-2 closings,
        # 3 at the weight-1 closing
        assert sorted(len(r.word) // 4 for r in r3) == [2, 2, 3]

    def test_square_rotations(self):
        P = coxeter_presentation(SQUARE)
        r3 = [r for r in P.relators if r.family == "R3a"]
        assert len(r3) == 4
        assert all(len(r.word) == 12 for r in r3)

    def test_quotient_adds_involutions(self):
        P = artin_presentation(SQUARE)
        Q = coxeter_quotient(P)
        assert sum(r.family == "R1" for r in Q.relators) == 4
        assert Q.mode == "coxeter"


class TestExports:
    def test_presentation_json_schema(self):
        P = artin_presentation(Diagram(2, ((1, 2, 1),)))
        obj = P.to_json()
        assert obj["generators"] == 2
        assert obj["relators"][0]["word"] == [
            [1, 1], [2, 1], [1, 1], [2, -1], [1, -1], [2, -1]
        ]

    def test_presentation_text(self):
        P = artin_presentation(Diagram(2, ((1, 2, 1),)))
        assert P.to_text() == "g1 g2 g1 G2 G1 G2\n"

    def test_deterministic_ordering(self):
        a = artin_presentation(SQUARE)
        b = artin_presentation(SQUARE)
        assert [r.provenance for r in a.relators] == [r.provenance for r in b.relators]

    def test_family_and_provenance_order_the_relators(self):
        # Relator.sort_key is (family rank, provenance): two relators of one
        # family may share a provenance only when they share the word too,
        # so no tiebreak on the word could change the order.
        with open(FIXTURES / "t4-patterns.json", encoding="utf-8") as fh:
            patterns = load_t4_patterns(json.load(fh))
        builders = {
            "artin": artin_presentation,
            "artin-min": lambda D: artin_presentation(D, minimal_t3=True),
            "coxeter": coxeter_presentation,
            "affine": lambda D: affine_artin_presentation(D, patterns),
        }
        built = dict.fromkeys(builders, 0)
        for path in sorted(FIXTURES.glob("*.json")):
            with open(path, encoding="utf-8") as fh:
                try:
                    G = Diagram.from_json(json.load(fh))
                except DiagramError:
                    continue  # a map or pattern fixture
            members = (G, *mutation_class(G)) if G.n <= 6 else (G,)
            for D in members:
                for name, build in builders.items():
                    try:
                        P = build(D)
                    except PresentationError:
                        continue  # outside the builder's taxonomy
                    built[name] += 1
                    words = {}
                    for r in P.relators:
                        key = (r.family, r.provenance)
                        assert words.setdefault(key, r.word) == r.word, (
                            path.name, D.edges, name, key)
        assert all(built.values()), built
