import random
from dataclasses import replace
from heapq import heappop, heappush
from itertools import permutations, product
from math import factorial, prod

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from cluster_artin import (
    Diagram,
    GroupMap,
    Presentation,
    ProofCertificate,
    ProofStep,
    Relator,
    SearchBudget,
    Word,
    abelianization_check,
    affine_artin_presentation,
    artin_presentation,
    chordless_cycles,
    coxeter_presentation,
    coxeter_quotient,
    delta,
    derive_t3_rotations,
    fuzz_soundness,
    group_order,
    load_t4_patterns,
    mutation_class,
    phi,
    prove_trivial,
    psi,
    quotient_table,
    replay_certificate,
    t3_qualifies,
    t_relator,
    todd_coxeter,
    verify_homomorphism,
    verify_mutation_invariance,
    word_trivial_in_coxeter,
)
from cluster_artin.presentation import least_cyclic_rotation
from cluster_artin.verifier import (
    DEFAULT_BUDGET,
    DEFAULT_COSET_CAP,
    FAIL,
    INCONCLUSIVE,
    PASS,
    CosetTable,
    RelatorCheck,
    VerifierError,
    _columns,
    _descent_candidates,
    _enumerate,
    _order_lower_bound,
    _relabelled_form,
    _without_generator,
    worst,
)

from conftest import (
    AFFINE_C2,
    DYNKIN,
    PENTAGON,
    SQUARE,
    SQUARE_1212,
    TRIANGLE_221,
    WEYL_ORDERS,
    load_fixture,
    path_diagram,
)


def single_generator_presentation():
    return Presentation(
        n_generators=1,
        relators=(Relator(Word((1, 1)), "R1", "(1)"),),
        mode="coxeter",
        m_table=((0,),),
        label="test[s|s^2]",
    )


class TestToddCoxeter:
    def test_order_two(self):
        table = todd_coxeter(single_generator_presentation())
        assert table.order == 2

    def test_dihedral_from_edge(self):
        P = coxeter_presentation(Diagram(2, ((1, 2, 1),)))
        assert todd_coxeter(P).order == 6

    def test_triangle_matches_dynkin_b3(self):
        t = todd_coxeter(coxeter_presentation(TRIANGLE_221))
        d = todd_coxeter(coxeter_presentation(DYNKIN["B3"]))
        assert t.order == d.order == 48

    def test_weyl_orders(self):
        for name, G in DYNKIN.items():
            table = todd_coxeter(coxeter_presentation(G))
            assert table.order == WEYL_ORDERS[name], name
            assert table.validate(coxeter_presentation(G))

    def test_capped(self):
        table = todd_coxeter(coxeter_presentation(DYNKIN["D4"]), coset_cap=10)
        assert table.status == "capped"
        assert table.order is None
        # Tables that mix self-inverse columns and column pairs stop too.
        for name in ("mixed-columns", "order-42"):
            table = todd_coxeter(TC_PRESENTATIONS[name](), coset_cap=2)
            assert table.status == "capped", name
            assert table.order is None, name

    def test_deterministic(self):
        P = coxeter_presentation(DYNKIN["B3"])
        assert todd_coxeter(P).rows == todd_coxeter(P).rows

    def test_order_shared_across_classes(self):
        for name in ("A3", "B3", "D4"):
            orders = {
                todd_coxeter(coxeter_presentation(D)).order
                for D in mutation_class(DYNKIN[name])
            }
            assert orders == {WEYL_ORDERS[name]}

    def test_one_column_per_involution(self):
        # Every generator of a Coxeter quotient is an involution, so its
        # table has one entry per generator per coset.
        for name in TC_FIXTURES:
            P = TC_PRESENTATIONS[f"quotient-{name}"]()
            table = todd_coxeter(P)
            n = P.n_generators
            assert {len(row) for row in table.rows} == {n}, name
            assert all(table.col[g] == table.col[-g]
                       for g in range(1, n + 1)), name
        widths = {name: {len(row) for row in todd_coxeter(
            TC_PRESENTATIONS[name]()).rows}
            for name in ("mixed-columns", "cyclic-3", "order-42")}
        assert widths == {"mixed-columns": {3}, "cyclic-3": {2},
                          "order-42": {5}}


class TestWordTrivial:
    def test_empty_word(self):
        table = todd_coxeter(coxeter_presentation(DYNKIN["A3"]))
        assert word_trivial_in_coxeter(table, Word(()))

    def test_single_generator_nontrivial(self):
        table = todd_coxeter(coxeter_presentation(DYNKIN["A3"]))
        assert not word_trivial_in_coxeter(table, Word((1,)))

    def test_relators_trivial(self):
        P = coxeter_presentation(TRIANGLE_221)
        table = todd_coxeter(P)
        for r in P.relators:
            assert word_trivial_in_coxeter(table, r.word)

    def test_capped_table_raises(self):
        # Kept under its old name: a capped table now decides nothing.
        table = todd_coxeter(coxeter_presentation(DYNKIN["D4"]), coset_cap=10)
        assert word_trivial_in_coxeter(table, Word((1,))) is None


def every_coset_trivial(table, w: Word) -> bool:
    """Reference word check: w must fix every coset of the table."""
    cols = [table.col[x] for x in w.letters]
    for start in range(len(table.rows)):
        cur = start
        for c in cols:
            cur = table.rows[cur][c]
        if cur != start:
            return False
    return True


WORD_CHECK_FIXTURES = ("a2", "b2", "g2", "a3", "b3", "d4")


class TestWordTrivialAgainstEveryCoset:
    @pytest.mark.parametrize("name", WORD_CHECK_FIXTURES)
    def test_coset_zero_agrees_with_every_coset(self, name):
        G = Diagram.from_json(load_fixture(f"{name}.json"))
        P = coxeter_presentation(G)
        table = todd_coxeter(P)
        assert table.status == "complete"
        rng = random.Random(f"word-check:{name}")
        words = [r.word for r in P.relators + artin_presentation(G).relators]
        for _ in range(300):
            words.append(Word(tuple(
                rng.randint(1, G.n) * rng.choice((1, -1))
                for _ in range(rng.randint(0, 14)))))
        verdicts = set()
        for w in words:
            got = word_trivial_in_coxeter(table, w)
            assert got == every_coset_trivial(table, w), w.letters
            verdicts.add(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", WORD_CHECK_FIXTURES)
    def test_capped_table_still_raises(self, name):
        # Kept under its old name: a capped table now decides nothing.
        G = Diagram.from_json(load_fixture(f"{name}.json"))
        table = todd_coxeter(coxeter_presentation(G), coset_cap=2)
        assert table.status == "capped"
        assert word_trivial_in_coxeter(table, Word(())) is None


def reference_todd_coxeter(P: Presentation,
                           coset_cap: int = DEFAULT_COSET_CAP) -> CosetTable:
    """Reference enumeration: every generator gets a column and an inverse
    column (c ^ 1), and every relator is scanned, involutions included."""
    col = {x: 2 * (g - 1) + (x < 0)
           for g in range(1, P.n_generators + 1) for x in (g, -g)}
    ncols = 2 * P.n_generators
    relcols = [tuple(map(col.__getitem__, r.word.letters))
               for r in P.relators]
    table: list[list] = [[None] * ncols]
    p: list[int] = [0]
    defined = 1

    def rep(k):
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    queue: list[int] = []

    def merge(a, b):
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            p[b] = a
            queue.append(b)

    def coincidence(a, b):
        merge(a, b)
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            for c in range(ncols):
                delta = table[gamma][c]
                if delta is None:
                    continue
                table[delta][c ^ 1] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][c] is not None:
                    merge(nu, table[mu][c])
                elif table[nu][c ^ 1] is not None:
                    merge(mu, table[nu][c ^ 1])
                else:
                    table[mu][c] = nu
                    table[nu][c ^ 1] = mu
        queue.clear()

    def define(alpha, c):
        nonlocal defined
        beta = len(table)
        table.append([None] * ncols)
        p.append(beta)
        table[alpha][c] = beta
        table[beta][c ^ 1] = alpha
        defined += 1

    def scan_and_fill(alpha, word):
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            define(f, word[i])

    alpha = 0
    while alpha < len(table):
        if defined > coset_cap:
            return CosetTable(col, ())
        if rep(alpha) == alpha:
            for rel in relcols:
                scan_and_fill(alpha, rel)
                if rep(alpha) != alpha:
                    break
            if rep(alpha) == alpha:
                for c in range(ncols):
                    if table[alpha][c] is None:
                        define(alpha, c)
        alpha += 1
    live = [c for c in range(len(table)) if rep(c) == c]
    remap = {old: new for new, old in enumerate(live)}
    return CosetTable(col, tuple(
        tuple(remap[rep(e)] for e in table[old]) for old in live))


def small_presentation(n: int, *words: tuple[int, ...]) -> Presentation:
    return Presentation(
        n_generators=n,
        relators=tuple(Relator(Word(w), "test", f"r{i}")
                       for i, w in enumerate(words)),
        mode="coxeter",
        m_table=tuple((0,) * n for _ in range(n)),
        label="test[" + ";".join(map(str, words)) + "]",
    )


TC_FIXTURES = ("a2", "b2", "g2", "a3", "b3", "b3-triangle", "d4", "square")
TC_PRESENTATIONS = {
    **{f"coxeter-{name}": (lambda name=name: coxeter_presentation(
        Diagram.from_json(load_fixture(f"{name}.json")))) for name in TC_FIXTURES},
    **{f"quotient-{name}": (lambda name=name: coxeter_quotient(artin_presentation(
        Diagram.from_json(load_fixture(f"{name}.json"))))) for name in TC_FIXTURES},
    # No involution relator: every generator keeps two columns.
    "cyclic-3": lambda: small_presentation(1, (1, 1, 1)),
    # One self-inverse column and one pair of columns: S3 of order 6.
    "mixed-columns": lambda: small_presentation(
        2, (1, 1), (2, 2, 2), (1, 2, 1, 2)),
    # Involutions written with inverse letters: S3 again.
    "inverse-involutions": lambda: small_presentation(
        2, (-1, -1), (-2, -2), (1, 2, 1, 2, 1, 2)),
    # Only involutions, none of them Coxeter-generated by a diagram.
    "klein-four": lambda: small_presentation(2, (1, 1), (2, 2), (1, 2) * 2),
    # Presentations that collapse a generator to the identity: coincidences
    # meet self-inverse columns that point a coset at itself.
    "collapse-to-one": lambda: small_presentation(
        2, (1, 1), (2, 2), (1, 2) * 3, (1, 2, 1, 2, 1)),
    "collapse-to-two": lambda: small_presentation(
        2, (1, 1), (2, 2), (1, 2) * 2, (1, 2, 1)),
    # The nonabelian group of order 21, b a b^-1 = a^2: inverting the letters
    # of a relator in place does not give a relator, so a table whose +g and
    # -g columns were swapped fails validation and the word checks.
    "order-21": lambda: small_presentation(
        2, (1,) * 7, (2, 2, 2), (2, 1, -2, -1, -1)),
    # The same group beside an involution that inverts a: mixed columns with
    # coincidences on both kinds.
    "order-42": lambda: small_presentation(
        3, (1,) * 7, (2, 2, 2), (2, 1, -2, -1, -1), (3, 3), (3, 1, 3, 1),
        (3, 2, 3, -2)),
}


def assert_same_as_reference(P: Presentation) -> None:
    table, ref = todd_coxeter(P), reference_todd_coxeter(P)
    assert table.status == ref.status == "complete"
    assert table.order == ref.order
    assert table.validate(P)
    rng = random.Random(f"todd-coxeter:{P.label}")
    words = [r.word for r in P.relators]
    words += [r.word.conjugate(random_word(rng, P.n_generators, 1, 4))
              for r in P.relators]
    words += [random_word(rng, P.n_generators, 0, 14) for _ in range(200)]
    for w in words:
        assert word_trivial_in_coxeter(table, w) == word_trivial_in_coxeter(
            ref, w), w.letters


class TestToddCoxeterAgainstReference:
    @pytest.mark.parametrize("name", TC_PRESENTATIONS)
    def test_orders_and_verdicts(self, name):
        assert_same_as_reference(TC_PRESENTATIONS[name]())

    def test_known_orders(self):
        known = {"cyclic-3": 3, "mixed-columns": 6, "inverse-involutions": 6,
                 "klein-four": 4, "collapse-to-one": 1, "collapse-to-two": 2,
                 "order-21": 21, "order-42": 42}
        assert {name: todd_coxeter(TC_PRESENTATIONS[name]()).order
                for name in known} == known

    def test_inverse_involution_gets_the_same_column(self):
        # (-g, -g) and (g, g) name the same involution: one self-inverse
        # column and no scan, hence the very same table.
        braid = (1, 2, 1, 2, 1, 2)
        written_inverse = small_presentation(2, (-1, -1), (-2, -2), braid)
        written_plain = small_presentation(2, (1, 1), (2, 2), braid)
        assert todd_coxeter(written_inverse).rows == todd_coxeter(
            written_plain).rows


class TestResumableEnumeration:
    @pytest.mark.parametrize("name", TC_PRESENTATIONS)
    def test_pausing_and_resuming_changes_nothing(self, name):
        # Pause at caps 8, 16, 32, ... and resume: each pause agrees with a
        # fresh enumeration under that cap, and the rows at the end are
        # those of one uninterrupted enumeration.
        P = TC_PRESENTATIONS[name]()
        n = P.n_generators
        columns = _columns(n, tuple(r.word.letters for r in P.relators))
        for v in range(1, n + 1):
            H = tuple(g for g in range(1, n + 1) if g != v)
            steps = _enumerate(columns, H)
            defined, rows, cap = 0, None, 8
            while rows is None:
                try:
                    while defined <= cap:
                        defined = next(steps)
                except StopIteration as done:
                    rows = done.value
                status = "capped" if rows is None else "complete"
                assert todd_coxeter(P, cap, H).status == status, (H, cap)
                cap *= 2
            assert rows == todd_coxeter(P, subgroup=H).rows, H


E_DYNKIN = {
    6: Diagram(6, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (3, 6, 1))),
    7: Diagram(7, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1),
                   (3, 7, 1))),
    # Without vertex 7 this is E7: arms of 2, 3 and 1 vertices at vertex 3.
    8: Diagram(8, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1),
                   (6, 7, 1), (3, 8, 1))),
}

# Classes whose every member's order is checked against a full table.
DESCENT_CLASSES = {
    **{f"A{n}": path_diagram(n) for n in range(3, 7)},
    "B3": DYNKIN["B3"],
    "B4": Diagram(4, ((1, 2, 1), (2, 3, 1), (3, 4, 2))),
    "D4": DYNKIN["D4"],
    "D5": Diagram(5, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1))),
    "F4": Diagram(4, ((1, 2, 1), (2, 3, 2), (3, 4, 1))),
    "G2": DYNKIN["G2"],
    "E6": E_DYNKIN[6],
    "B3-triangle": TRIANGLE_221,
}

# |W| as the product of the degrees of the basic invariants.
WEYL_BY_DEGREES = {
    "A7": prod(range(2, 9)),
    "A8": prod(range(2, 10)),
    "E7": prod((2, 6, 8, 10, 12, 14, 18)),
    "E8": prod((2, 8, 12, 14, 18, 20, 24, 30)),
}


@pytest.fixture
def fallbacks(monkeypatch):
    """group_order's fallbacks, recorded as they happen: every full table
    the descent builds on more than one generator, as ("full table", the
    generator count), and every stabilizer chain that stalls short of its
    target.  (A one-generator presentation's only candidate subgroup is
    trivial, so its table is no fallback; nor is a table built outside the
    descent.)"""
    import cluster_artin.verifier as verifier_module

    log = []
    depth = 0
    descend = verifier_module._descend
    race = verifier_module._race
    lower_bound = verifier_module._order_lower_bound

    def counting_descend(*args):
        nonlocal depth
        depth += 1
        try:
            return descend(*args)
        finally:
            depth -= 1

    def counting_race(columns, subgroups, coset_cap):
        col = columns[0]
        if depth and subgroups == [()] and len(col) > 2:
            log.append(("full table", len(col) // 2))
        return race(columns, subgroups, coset_cap)

    def counting_lower_bound(gens, target):
        bound = lower_bound(gens, target)
        if bound != target:
            log.append(("stall", bound, target))
        return bound

    monkeypatch.setattr(verifier_module, "_descend", counting_descend)
    monkeypatch.setattr(verifier_module, "_race", counting_race)
    monkeypatch.setattr(verifier_module, "_order_lower_bound",
                        counting_lower_bound)
    return log


def closure_order(gens) -> int:
    """Brute force: the size of the group the permutations generate."""
    seen = {tuple(range(len(gens[0])))}
    frontier = list(seen)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen)


class TestGroupOrder:
    @pytest.mark.parametrize("name", DESCENT_CLASSES)
    def test_class_members_match_the_full_table(self, name, fallbacks):
        for D in mutation_class(DESCENT_CLASSES[name]):
            P = coxeter_presentation(D)
            assert group_order(P) == todd_coxeter(P).order, D.edges
        assert fallbacks == []

    @pytest.mark.parametrize("name", ("A7", "A8"))
    def test_large_type_a_classes_match_the_degrees(self, name, fallbacks):
        G = path_diagram(int(name[1:]))
        assert {group_order(coxeter_presentation(D))
                for D in mutation_class(G)} == {WEYL_BY_DEGREES[name]}
        assert fallbacks == []

    def test_seeded_e7_members_match_the_degrees(self, fallbacks):
        members = random.Random("group-order:E7").sample(
            mutation_class(E_DYNKIN[7]), 40)
        for D in members:
            assert group_order(coxeter_presentation(D)) == \
                WEYL_BY_DEGREES["E7"], D.edges
        assert fallbacks == []

    def test_e8_matches_the_degrees(self, fallbacks):
        assert group_order(coxeter_presentation(E_DYNKIN[8])) == \
            WEYL_BY_DEGREES["E8"]
        assert fallbacks == []

    @pytest.mark.parametrize("name", TC_PRESENTATIONS)
    def test_any_finite_presentation_matches_the_full_table(self, name):
        P = TC_PRESENTATIONS[name]()
        assert group_order(P) == todd_coxeter(P).order

    def test_unfaithful_coset_action_falls_back(self, fallbacks):
        # In the Klein four group <b> is normal, so b fixes both cosets of
        # <b>: the action on them has order 2 against the bound 2 * 2 = 4.
        P = small_presentation(2, (1, 1), (2, 2), (1, 2) * 2)
        assert group_order(P) == 4
        assert ("full table", 2) in fallbacks

    def test_forced_fallback_matches_the_full_table(self, monkeypatch,
                                                    fallbacks):
        # With no lower bound, no chain proves its bound, so every level of
        # the descent with more than one generator builds its full table.
        import cluster_artin.verifier as verifier_module

        monkeypatch.setattr(verifier_module, "_order_lower_bound",
                            lambda gens, target: 0)
        for name, build in TC_PRESENTATIONS.items():
            P = build()
            fallbacks.clear()
            assert group_order(P) == todd_coxeter(P).order, name
            if P.n_generators > 1:
                assert ("full table", P.n_generators) in fallbacks, name
        assert group_order(coxeter_presentation(AFFINE_C2),
                           coset_cap=2000) is None

    def test_infinite_group_is_undecided_without_a_full_table(self, fallbacks):
        assert group_order(coxeter_presentation(AFFINE_C2),
                           coset_cap=2000) is None
        assert fallbacks == []

    def test_no_generators(self):
        assert group_order(small_presentation(0)) == 1

    @staticmethod
    def descent_runs(monkeypatch, n):
        """The descent's enumerations over subgroups on n - 1 generators:
        for each, the cosets defined before every row, and its rows when it
        completed (None otherwise)."""
        import cluster_artin.verifier as verifier_module

        runs = []
        enumerate_cosets = verifier_module._enumerate

        def recording_enumerate(columns, subgroup=()):
            counts = []
            run = [subgroup, counts, None]
            if len(subgroup) == n - 1:
                runs.append(run)
            steps = enumerate_cosets(columns, subgroup)
            try:
                while True:
                    counts.append(next(steps))
                    yield counts[-1]
            except StopIteration as done:
                run[2] = done.value
                return done.value

        monkeypatch.setattr(verifier_module, "_enumerate",
                            recording_enumerate)
        return runs

    def test_candidate_tables_stay_near_the_winning_index(self, monkeypatch):
        # E8 over E7 has index 240; the other maximal parabolic subgroups
        # have larger index (2,160 for D7, 17,280 for A7).  A candidate goes
        # next only while no other has defined fewer cosets, so a loser
        # stops within one row of the winner's final count.
        P = coxeter_presentation(E_DYNKIN[8])
        runs = self.descent_runs(monkeypatch, 8)
        assert group_order(P) == WEYL_BY_DEGREES["E8"]
        assert len(runs) == len(_descent_candidates(P.m_table)) == 3
        winners = [run for run in runs if run[2] is not None]
        assert [(H, len(rows)) for H, _, rows in winners] == [
            ((1, 2, 3, 4, 5, 6, 8), 240)]
        final = winners[0][1][-1]
        for H, counts, rows in runs:
            if rows is None:
                assert counts[-2] <= final, H

    def test_undecided_when_every_candidate_passes_the_cap(self,
                                                            monkeypatch):
        P = coxeter_presentation(AFFINE_C2)
        runs = self.descent_runs(monkeypatch, 3)
        assert group_order(P, coset_cap=2000) is None
        assert len(runs) == len(_descent_candidates(P.m_table))
        for H, counts, rows in runs:
            assert rows is None and counts[-2] <= 2000 < counts[-1], H
        letters = tuple(r.word.letters for r in P.relators)
        columns = len(_columns(3, letters)[1])
        assert sum(counts[-1] for _, counts, _ in runs) <= len(runs) * (
            2000 + columns)


def census_presentations(G: Diagram) -> list[Presentation]:
    return [coxeter_presentation(D) for D in mutation_class(G)]


class TestGroupOrderMemo:
    @pytest.mark.parametrize("name", DESCENT_CLASSES)
    def test_shared_memo_matches_memo_free_orders(self, name):
        memo = {}
        for P in census_presentations(DESCENT_CLASSES[name]):
            assert group_order(P, memo=memo) == group_order(P), P.label

    @staticmethod
    def count_calls(monkeypatch, name):
        """The arguments of every call to verifier.<name>, as they happen."""
        import cluster_artin.verifier as verifier_module

        calls = []
        function = getattr(verifier_module, name)

        def counting(*args):
            calls.append(args)
            return function(*args)

        monkeypatch.setattr(verifier_module, name, counting)
        return calls

    def test_a6_census_runs_16_stabilizer_chains(self, monkeypatch):
        # Without the memo the same census runs 294 chains, and with a memo
        # keyed by the exact relator letters 88.
        calls = self.count_calls(monkeypatch, "_order_lower_bound")
        memo = {}
        orders = {group_order(P, memo=memo)
                  for P in census_presentations(path_diagram(6))}
        assert orders == {5040}
        assert len(calls) == 16

    def test_e7_census_runs_96_descents(self, monkeypatch):
        # Keyed by the exact relator letters the same census runs 640.
        presentations = census_presentations(
            Diagram.from_json(load_fixture("e7.json")))
        calls = self.count_calls(monkeypatch, "_descend")
        memo = {}
        orders = [group_order(P, memo=memo) for P in presentations]
        assert len(orders) == 416
        assert set(orders) == {WEYL_BY_DEGREES["E7"]}
        assert len(calls) == 96

    def test_a_relabelled_twin_is_looked_up(self, monkeypatch):
        P = coxeter_presentation(DYNKIN["A3"])
        # A3 with its middle vertex numbered 1.
        twin = coxeter_presentation(Diagram(3, ((2, 1, 1), (1, 3, 1))))
        assert P.relators != twin.relators
        memo = {}
        assert group_order(P, memo=memo) == 24
        calls = self.count_calls(monkeypatch, "_descend")
        assert group_order(twin, memo=memo) == 24
        assert calls == []

    def test_an_undecided_order_is_retried_not_reused(self, monkeypatch):
        P = coxeter_presentation(DYNKIN["A3"])
        twin = coxeter_presentation(Diagram(3, ((2, 1, 1), (1, 3, 1))))
        memo = {}
        calls = self.count_calls(monkeypatch, "_descend")
        for Q in (P, twin, P):
            calls.clear()
            assert group_order(Q, coset_cap=2, memo=memo) is None
            assert calls and calls[0][0] == 3
        assert None not in memo.values()
        # Nothing capped is kept, so the full cap decides both afresh.
        assert group_order(twin, memo=memo) == 24
        calls.clear()
        assert group_order(P, memo=memo) == 24
        assert calls == []

    def test_the_cap_is_part_of_the_key(self):
        P = coxeter_presentation(DYNKIN["A3"])
        memo = {}
        assert group_order(P, coset_cap=2, memo=memo) is None
        assert group_order(P, memo=memo) == 24

    def test_label_is_not_part_of_the_key(self):
        P = coxeter_presentation(DYNKIN["A3"])
        memo = {}
        assert group_order(P, memo=memo) == 24
        entries = len(memo)
        assert group_order(replace(P, label="other"), memo=memo) == 24
        assert len(memo) == entries


def triple(P: Presentation):
    """(generator count, m-table, relator letters), as the descent sees P."""
    return P.n_generators, P.m_table, tuple(r.word.letters for r in P.relators)


def inverse_letters(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(w))


def relabelled(n, m_table, relators, image):
    """(m_table, relators) with generator g renamed image[g - 1]."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m[image[i] - 1][image[j] - 1] = m_table[i][j]
    relators = tuple(tuple(image[x - 1] if x > 0 else -image[-x - 1]
                           for x in r) for r in relators)
    return tuple(map(tuple, m)), relators


def written_forms(relators) -> set:
    """Each relator as the least cyclic rotation of itself or its inverse."""
    return {min(least_cyclic_rotation(r),
                least_cyclic_rotation(inverse_letters(r))) for r in relators}


def disguised(rng: random.Random, n, m_table, relators):
    """The presentation under a random relabelling of its generators, with
    every relator rotated and perhaps inverted, some repeated, and all
    shuffled."""
    image = list(range(1, n + 1))
    rng.shuffle(image)
    m_table, relators = relabelled(n, m_table, relators, image)
    out = []
    for r in relators:
        k = rng.randrange(len(r))
        r = r[k:] + r[:k]
        out.append(inverse_letters(r) if rng.random() < 0.5 else r)
    out += rng.sample(out, len(out) // 3)
    rng.shuffle(out)
    return n, m_table, tuple(out)


def same_up_to_relabelling(x, y) -> bool:
    """Brute force: some relabelling carries x's m-table and written
    relators onto y's."""
    (n, m_x, r_x), (n_y, m_y, r_y) = x, y
    if n != n_y:
        return False
    target = written_forms(r_y)
    for image in permutations(range(1, n + 1)):
        m, r = relabelled(n, m_x, r_x, image)
        if m == m_y and written_forms(r) == target:
            return True
    return False


def form_subjects() -> list:
    """Presentations whose forms are compared: every TC_PRESENTATIONS entry,
    the Coxeter presentations of class members on up to 4 generators, those
    again without their cycle relators (the same m-tables, other relators),
    and the sub-presentations the descent meets on all of them."""
    presentations = [build() for build in TC_PRESENTATIONS.values()]
    for name in ("A3", "A4", "B3", "D4", "F4", "B4"):
        for P in census_presentations(DESCENT_CLASSES[name]):
            presentations += [P, replace(P, relators=tuple(
                r for r in P.relators if r.family in ("R1", "R2")))]
    subjects = []
    for P in presentations:
        subjects.append(triple(P))
        subjects += [_without_generator(*triple(P), v)
                     for v in range(1, P.n_generators + 1)]
    return subjects


class TestRelabelledForm:
    SUBJECTS = {
        **{name: (lambda name=name: triple(TC_PRESENTATIONS[name]()))
           for name in TC_PRESENTATIONS},
        **{f"census-{name}-{i}": (lambda D=D: triple(coxeter_presentation(D)))
           for name in ("A4", "D4", "B3-triangle", "F4")
           for i, D in enumerate(mutation_class(DESCENT_CLASSES[name]))},
    }

    @pytest.mark.parametrize("name", SUBJECTS)
    def test_invariant_under_relabelling_and_rewriting(self, name):
        x = self.SUBJECTS[name]()
        # The relators are cyclically reduced, so every rotation is a
        # reduced word.
        assert all(least_cyclic_rotation(r) in
                   {r[k:] + r[:k] for k in range(len(r))} for r in x[2])
        form = _relabelled_form(*x)
        assert form is not None
        rng = random.Random(f"relabelled-form:{name}")
        for _ in range(5):
            assert _relabelled_form(*disguised(rng, *x)) == form

    def test_equal_forms_exactly_when_some_relabelling_matches(self):
        subjects = form_subjects()
        forms = [_relabelled_form(*x) for x in subjects]
        assert None not in forms
        # Each class of equal forms is one presentation up to relabelling,
        # and different forms are different presentations.
        first = {}
        for x, form in zip(subjects, forms):
            first.setdefault(form, x)
            assert same_up_to_relabelling(x, first[form]), x
        distinct = list(first.values())
        for a in range(len(distinct)):
            for b in range(a + 1, len(distinct)):
                assert not same_up_to_relabelling(distinct[a], distinct[b])
        assert len(subjects) > len(distinct) > 20

    def test_different_presentations_get_different_forms(self):
        cycle_3 = coxeter_presentation(
            Diagram(3, ((1, 2, 1), (2, 3, 1), (3, 1, 1))))
        without_cycle_relators = replace(cycle_3, relators=tuple(
            r for r in cycle_3.relators if r.family != "R3a"))
        presentations = {
            "A3": coxeter_presentation(DYNKIN["A3"]),
            "A1xA2": coxeter_presentation(Diagram(3, ((2, 3, 1),))),
            "oriented 3-cycle": cycle_3,
            "3-cycle without (R3a)": without_cycle_relators,
            "B3": coxeter_presentation(DYNKIN["B3"]),
            "(2,2,1) triangle": coxeter_presentation(TRIANGLE_221),
            # Equal m-tables, told apart by the relators alone.
            "klein-four": TC_PRESENTATIONS["klein-four"](),
            "collapse-to-two": TC_PRESENTATIONS["collapse-to-two"](),
            "S3": small_presentation(2, (1, 1), (2, 2), (1, 2) * 3),
        }
        forms = {name: _relabelled_form(*triple(P))
                 for name, P in presentations.items()}
        assert None not in forms.values()
        assert len(set(forms.values())) == len(forms)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_commuting_m_tables(self, n):
        # Every placement ties on the m-table: n! of them.
        P = coxeter_presentation(Diagram(n, ()))
        x = triple(P)
        form = _relabelled_form(*x)
        assert form is not None
        assert _relabelled_form(*disguised(random.Random(n), *x)) == form
        assert group_order(P, memo={}) == 2 ** n

    @pytest.mark.parametrize("name", TC_PRESENTATIONS)
    def test_memo_orders_match_the_full_table(self, name):
        P = TC_PRESENTATIONS[name]()
        memo = {}
        assert group_order(P, memo=memo) == todd_coxeter(P).order
        assert (DEFAULT_COSET_CAP, _relabelled_form(*triple(P))) in memo

    def test_too_many_ties_key_by_the_exact_letters(self, monkeypatch):
        import cluster_artin.diagram as diagram_module

        monkeypatch.setattr(diagram_module, "_CANONICAL_PARTIAL_CAP", 5)
        P = coxeter_presentation(Diagram(4, ()))
        assert _relabelled_form(*triple(P)) is None
        memo = {}
        assert group_order(P, memo=memo) == 16
        # Exact keys are (coset cap, generator count, m-table, letters) and
        # form keys (coset cap, form).  Past 3 generators 5 placements tie.
        assert (DEFAULT_COSET_CAP, *triple(P)) in memo
        assert max(key[1][0] for key in memo if len(key) == 2) == 2


class TestVerifyMemo:
    def test_quotient_table_comes_from_the_memo(self):
        P = artin_presentation(Diagram.from_json(load_fixture("a3.json")))
        memo = {}
        table = quotient_table(P, DEFAULT_COSET_CAP, memo)
        assert quotient_table(P, DEFAULT_COSET_CAP, memo) is table
        # Without a memo nothing is kept: each call enumerates afresh.
        fresh = quotient_table(P)
        assert fresh is not table and fresh is not quotient_table(P)
        assert fresh.rows == table.rows

    @pytest.mark.parametrize("name", ("a3", "b3-triangle"))
    def test_prove_trivial_with_a_memo_gives_the_same_certificates(self, name):
        P = artin_presentation(Diagram.from_json(load_fixture(f"{name}.json")))
        memo = {}
        for r in P.relators:
            cert = prove_trivial(P, r.word, DEFAULT_BUDGET, memo)
            assert cert is not None
            assert cert == prove_trivial(P, r.word)
        # The relators of one presentation share one move list.
        assert len(memo) == 1


class TestSubgroupTables:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_symmetric_group_over_its_point_stabilizer(self, n):
        P = coxeter_presentation(path_diagram(n - 1))
        table = todd_coxeter(P, subgroup=tuple(range(1, n - 1)))
        assert (table.status, len(table.rows), table.order) == (
            "complete", n, None)
        assert table.validate(P)

    def test_e8_over_e7(self):
        P = coxeter_presentation(E_DYNKIN[8])
        table = todd_coxeter(P, subgroup=(1, 2, 3, 4, 5, 6, 8))
        assert len(table.rows) == 240
        assert table.validate(P)
        assert table.subgroup == (1, 2, 3, 4, 5, 6, 8)

    def test_validate_requires_the_subgroup_to_fix_coset_0(self):
        P = coxeter_presentation(DYNKIN["A3"])
        table = todd_coxeter(P, subgroup=(1, 2))
        assert table.validate(P)
        assert not replace(table, subgroup=(3,)).validate(P)

    def test_validate_requires_inverse_columns(self):
        # <a | a^3> scans home through the +a column alone, so a -a column
        # that is a permutation but not the inverse must still fail.
        P = small_presentation(1, (1, 1, 1))
        table = todd_coxeter(P)
        assert table.validate(P)
        broken = tuple((row[0], row[0]) for row in table.rows)
        assert not replace(table, rows=broken).validate(P)

    def test_validate_requires_self_inverse_columns_to_be_involutions(self):
        # In S3 = <a, b | a^2, b^3, (ab)^2>, a has one self-inverse column;
        # putting the permutation of b there must fail.
        P = TC_PRESENTATIONS["mixed-columns"]()
        table = todd_coxeter(P)
        assert table.validate(P)
        a, b = table.col[1], table.col[2]
        broken = tuple(tuple(row[b] if c == a else e for c, e in enumerate(row))
                       for row in table.rows)
        assert not replace(table, rows=broken).validate(P)

    def test_trivial_subgroup_is_the_default(self):
        P = coxeter_presentation(DYNKIN["B3"])
        assert todd_coxeter(P, subgroup=()) == todd_coxeter(P)
        assert todd_coxeter(P).subgroup == ()

    def test_word_check_refuses_a_subgroup_table(self):
        table = todd_coxeter(coxeter_presentation(DYNKIN["A3"]),
                             subgroup=(1, 2))
        with pytest.raises(VerifierError):
            word_trivial_in_coxeter(table, Word((3,)))

    def test_capped_subgroup_table(self):
        table = todd_coxeter(coxeter_presentation(AFFINE_C2), coset_cap=50,
                             subgroup=(1, 2))
        assert (table.status, table.subgroup, table.order) == (
            "capped", (1, 2), None)


class TestOrderLowerBound:
    def test_equals_brute_force_closure(self):
        rng = random.Random("order-lower-bound")
        for _ in range(60):
            degree = rng.randint(1, 7)
            gens = []
            for _ in range(rng.randint(1, 3)):
                p = list(range(degree))
                rng.shuffle(p)
                gens.append(tuple(p))
            order = closure_order(gens)
            assert _order_lower_bound(gens, factorial(degree)) == order, gens
            assert _order_lower_bound(gens, order) == order, gens

    def test_generators_reaching_the_target_draw_no_random_element(
            self, monkeypatch):
        import cluster_artin.verifier as verifier_module

        def no_random(seed):
            raise AssertionError("drew a random element")

        monkeypatch.setattr(verifier_module.random, "Random", no_random)
        cycle = (1, 2, 3, 4, 0)
        assert _order_lower_bound([cycle], 5) == 5
        swaps = [(1, 0, 2), (0, 2, 1)]
        assert _order_lower_bound(swaps, 6) == 6


# The affine triangle with an edge of weight 4: the closing pair (3, 1) has
# m = infinity in affine mode.
TRIANGLE_334 = Diagram(3, ((1, 2, 3), (2, 3, 3), (3, 1, 4)))

ABELIANIZATION_FIXTURES = ("a2", "a3", "a3-matrix", "a4", "b2", "b3",
                           "b3-triangle", "d4", "e7", "e8", "g2", "square",
                           "square-1212")
ABELIANIZATION_SUBJECTS = {
    **{f"{kind.__name__}-{name}": (
        lambda kind=kind, name=name: kind(
            Diagram.from_json(load_fixture(f"{name}.json"))))
       for name in ABELIANIZATION_FIXTURES
       for kind in (artin_presentation, coxeter_presentation)},
    **{f"{kind.__name__}-{name}": (
        lambda kind=kind, G=G: kind(G))
       for name, G in DYNKIN.items()
       for kind in (artin_presentation, coxeter_presentation)},
    "affine-c2": lambda: affine_artin_presentation(
        AFFINE_C2, load_t4_patterns(load_fixture("t4-patterns.json"))),
    "affine-triangle-334": lambda: affine_artin_presentation(TRIANGLE_334),
}


class TestAbelianization:
    def test_empty_word(self):
        assert abelianization_check(artin_presentation(DYNKIN["A3"]), Word(()))

    def test_odd_m_identifies_generators(self):
        P = artin_presentation(DYNKIN["A2"])
        assert abelianization_check(P, Word((1, -2)))

    def test_single_generator_fails(self):
        assert not abelianization_check(artin_presentation(DYNKIN["A2"]), Word((1,)))

    def test_even_m_keeps_generators_apart(self):
        P = artin_presentation(DYNKIN["B2"])
        assert not abelianization_check(P, Word((1, -2)))

    def test_coxeter_mode_reduces_mod_two(self):
        P = coxeter_presentation(DYNKIN["B2"])
        assert abelianization_check(P, Word((1, 1)))
        assert not abelianization_check(P, Word((1,)))

    @pytest.mark.parametrize("name", ABELIANIZATION_SUBJECTS)
    def test_every_relator_passes(self, name):
        P = ABELIANIZATION_SUBJECTS[name]()
        for r in P.relators:
            assert abelianization_check(P, r.word), r.provenance

    def test_affine_relator_across_an_infinite_edge_passes(self):
        # <s,p>(1,2)^3 has exponent sums e1 - e3, although the edge between
        # 1 and 3 has weight 4 (m = infinity): merging only generators with
        # m = 3 refuted it.
        P = affine_artin_presentation(TRIANGLE_334)
        (r,) = [r for r in P.relators if r.provenance.startswith("<s,p>(1,2)")]
        assert r.word.exponent_sums(3) == (1, 0, -1)
        assert abelianization_check(P, r.word)

    @pytest.mark.parametrize("k", (1, 3))
    def test_affine_instance_is_not_refuted(self, k):
        report = verify_mutation_invariance(
            TRIANGLE_334, k, SearchBudget(max_nodes=20_000), coset_cap=2000,
            presenter=affine_artin_presentation)
        assert report.status != "FAIL"

    @pytest.mark.parametrize("name", ABELIANIZATION_SUBJECTS)
    def test_agrees_with_hermite_normal_form(self, name):
        P = ABELIANIZATION_SUBJECTS[name]()
        n = P.n_generators
        lattice = [r.word.exponent_sums(n) for r in P.relators]
        basis = hermite_normal_form(Matrix(n, len(lattice),
                                           lambda i, j: lattice[j][i]))
        rng = random.Random(f"abelianization-{name}")
        verdicts = set()
        for _ in range(60):
            # Half the words are products of relator conjugates, so that
            # both verdicts are met.
            if rng.random() < 0.5:
                w = random_word(rng, n, 0, 6)
            else:
                w = Word(())
                for _ in range(rng.randint(1, 3)):
                    r = rng.choice(P.relators).word
                    w = w * (r if rng.random() < 0.5 else r.inverse())
                w = w * random_word(rng, n, 0, 2)
            v = w.exponent_sums(n)
            extended = hermite_normal_form(Matrix(
                n, len(lattice) + 1,
                lambda i, j: (lattice[j] if j < len(lattice) else v)[i]))
            expected = extended == basis
            assert abelianization_check(P, w) == expected, w.letters
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestProveTrivial:
    def test_relator_has_one_step_certificate(self):
        P = artin_presentation(DYNKIN["A2"])
        cert = prove_trivial(P, P.relators[0].word)
        assert cert is not None and len(cert.steps) == 1
        assert replay_certificate(P, cert)

    def test_empty_word(self):
        P = artin_presentation(DYNKIN["A2"])
        cert = prove_trivial(P, Word(()))
        assert cert is not None and cert.steps == ()

    def test_budget_exhaustion_returns_none(self):
        P = artin_presentation(DYNKIN["A2"])
        w = Word((1, 2, 1, -2, -1, -2)).conjugate(Word((2, 1)))
        assert prove_trivial(P, w, SearchBudget(max_nodes=1)) is None

    def test_exhausted_space_returns_none(self):
        # With no slack no insertion keeps s1 at one letter, so the search
        # runs out of words long before it could spend 10^9 nodes.
        P = artin_presentation(DYNKIN["A2"])
        budget = SearchBudget(max_nodes=10**9, len_slack=0)
        assert prove_trivial(P, Word((1,)), budget) is None

    def test_tampered_certificate_fails_replay(self):
        P = artin_presentation(DYNKIN["A2"])
        cert = prove_trivial(P, P.relators[0].word)
        bad = ProofCertificate(cert.start, (ProofStep(1, 0, 0, False),))
        assert not replay_certificate(P, bad)

    def test_certified_words_pass_the_quotient(self):
        P = artin_presentation(TRIANGLE_221)
        table = quotient_table(P)
        for r in P.relators:
            w = r.word.conjugate(Word((3, -1)))
            cert = prove_trivial(P, w)
            assert cert is not None and replay_certificate(P, cert)
            assert word_trivial_in_coxeter(table, w)


def _stack_splice(word, pos, ins):
    """Reference splice: a letter-by-letter cancellation stack."""
    out = list(word[:pos])
    for x in ins + word[pos:]:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def reference_prove_trivial(P, w, budget=DEFAULT_BUDGET):
    """The insertion search with a stack splice and a ProofStep per state.

    Kept as an independent statement of the search order: the library's
    search must return the same certificates and the same None outcomes.
    """
    start = w.letters
    if not start:
        return ProofCertificate(w, ())
    maxlen = budget.limit_for(w)
    if len(start) > maxlen:
        return None
    moves, seen = [], set()
    for rid, rel in enumerate(P.relators):
        core = rel.word.letters
        for rot in range(len(core)):
            rotated = core[rot:] + core[:rot]
            for inverted in (False, True):
                letters = (tuple(-x for x in reversed(rotated))
                           if inverted else rotated)
                if letters not in seen:
                    seen.add(letters)
                    moves.append((rid, rot, inverted, letters))
    parent = {start: None}
    heap = [(len(start), 0, start)]
    counter = nodes = 0
    while heap:
        _, _, cur = heappop(heap)
        seam_after = {}
        for idx, x in enumerate(cur):
            seam_after.setdefault(x, []).append(idx)
        for rid, rot, inverted, letters in moves:
            positions = {0, len(cur)}
            positions.update(i + 1 for i in seam_after.get(-letters[0], ()))
            positions.update(seam_after.get(-letters[-1], ()))
            for pos in sorted(positions):
                nodes += 1
                if nodes > budget.max_nodes:
                    return None
                nxt = _stack_splice(cur, pos, letters)
                if len(nxt) > maxlen or nxt in parent:
                    continue
                parent[nxt] = (cur, ProofStep(pos, rid, rot, inverted))
                if not nxt:
                    steps = []
                    while parent[nxt] is not None:
                        nxt, step = parent[nxt]
                        steps.append(step)
                    return ProofCertificate(w, tuple(reversed(steps)))
                counter += 1
                heappush(heap, (len(nxt), counter, nxt))
    return None


def random_word(rng, n: int, lo: int, hi: int) -> Word:
    return Word(tuple(rng.randint(1, n) * rng.choice((1, -1))
                      for _ in range(rng.randint(lo, hi))))


def assert_same_search(P, w, budget=DEFAULT_BUDGET):
    cert = prove_trivial(P, w, budget)
    assert cert == reference_prove_trivial(P, w, budget), w.letters
    if cert is not None:
        assert replay_certificate(P, cert)
    return cert


REFERENCE_FIXTURES = ("a3", "b3-triangle", "d4", "square")


class TestProverAgainstReference:
    @pytest.mark.parametrize("name", REFERENCE_FIXTURES)
    def test_every_relator_and_its_conjugate(self, name):
        P = artin_presentation(Diagram.from_json(load_fixture(f"{name}.json")))
        budget = SearchBudget(max_nodes=5_000)
        for r in P.relators:
            assert assert_same_search(P, r.word) is not None
            assert_same_search(P, r.word.conjugate(Word((2, -1))), budget)

    @pytest.mark.parametrize("name", REFERENCE_FIXTURES)
    def test_seeded_quotient_trivial_words(self, name):
        # mostly nontrivial in the Artin group: the search runs to its budget
        P = artin_presentation(Diagram.from_json(load_fixture(f"{name}.json")))
        table = quotient_table(P)
        rng = random.Random(f"reference-search:{name}")
        found = []
        while len(found) < 10:
            w = random_word(rng, P.n_generators, 4, 12)
            if w and word_trivial_in_coxeter(table, w):
                found.append(w)
        for w in found:
            assert_same_search(P, w, SearchBudget(max_nodes=2_000, len_slack=8))

    @pytest.mark.parametrize("name", REFERENCE_FIXTURES)
    def test_seeded_products_of_conjugated_relators(self, name):
        P = artin_presentation(Diagram.from_json(load_fixture(f"{name}.json")))
        rng = random.Random(f"reference-products:{name}")
        outcomes = []
        for _ in range(8):
            r1, r2 = rng.choice(P.relators), rng.choice(P.relators)
            w = (r1.word.conjugate(random_word(rng, P.n_generators, 1, 2))
                 * r2.word.inverse().conjugate(random_word(rng, P.n_generators, 1, 2)))
            cert = assert_same_search(P, w, SearchBudget(max_nodes=20_000))
            outcomes.append(cert is not None)
        assert any(outcomes)

    def test_small_node_budgets_pin_the_count(self):
        P = artin_presentation(DYNKIN["A2"])
        w = Word((1, 2, 1, -2, -1, -2)).conjugate(Word((2, 1)))
        outcomes = [
            assert_same_search(P, w, SearchBudget(max_nodes=k)) is not None
            for k in range(1, 80)
        ]
        assert outcomes[0] is False and outcomes[-1] is True

    def test_relator_that_is_not_cyclically_reduced(self):
        base = artin_presentation(DYNKIN["A3"])
        conj = Relator(Word((1, 2, -1)), "T2", "conjugate of g2")
        P = base.with_relators(base.relators + (conj,), "nonreduced")
        rng = random.Random("reference-search:nonreduced")
        words = [Word((2,)), Word((-1, 2, 1)), Word((3, 1, -2, -1, -3)),
                 Word((1, 3, -2, -3, -1, 2))]
        words += [random_word(rng, 3, 3, 8) for _ in range(10)]
        for w in words:
            assert_same_search(P, w, SearchBudget(max_nodes=3_000, len_slack=8))
        for k in range(1, 40):
            assert_same_search(P, Word((3, 1, -2, -1, -3)),
                               SearchBudget(max_nodes=k))


class TestSearchBudget:
    def test_defaults(self):
        budget = SearchBudget()
        assert budget.max_nodes == 1_000_000
        assert budget.limit_for(Word((1, 2, 3))) == 3 + 16


class TestLemmaReplays:
    def test_weight_one_conjugation_identity(self):
        # s_i s_j s_i^-1 = s_j^-1 s_i s_j under m = 3
        P = artin_presentation(Diagram(2, ((1, 2, 1),)))
        cert = prove_trivial(P, Word((1, 2, -1, -2, -1, 2)))
        assert cert is not None and replay_certificate(P, cert)

    def test_weight_two_commutation_identity(self):
        # s_i s_j s_i^-1 s_j^-1 = s_j^-1 s_i^-1 s_j s_i under m = 4
        P = artin_presentation(Diagram(2, ((1, 2, 2),)))
        cert = prove_trivial(P, Word((1, 2, -1, -2, -1, -2, 1, 2)))
        assert cert is not None and replay_certificate(P, cert)

    def test_triangle_rotation_equivalence_both_ways(self):
        P = artin_presentation(TRIANGLE_221)
        (cycle,) = chordless_cycles(TRIANGLE_221)
        t2 = tuple(r for r in P.relators if r.family == "T2")
        t12, t23 = t_relator(cycle, 0), t_relator(cycle, 1)
        for have, want in ((t23, t12), (t12, t23)):
            Q = P.with_relators(t2 + (have,), f"only-{have.provenance[:6]}")
            cert = prove_trivial(Q, want.word)
            assert cert is not None and replay_certificate(Q, cert)

    def test_braid_word_of_the_triangle(self):
        # s_j p(j,k) s_j p(j,k)^-1 s_j^-1 p(j,k)^-1 with j=3, k=1, i=2
        P = artin_presentation(TRIANGLE_221)
        w = Word((3, -1, 2, 1, 3, -1, -2, 1, -3, -1, -2, 1))
        cert = prove_trivial(P, w)
        assert cert is not None and replay_certificate(P, cert)

    def test_square_rotation_equivalence_both_ways(self):
        P = artin_presentation(SQUARE_1212)
        (cycle,) = chordless_cycles(SQUARE_1212)
        t2 = tuple(r for r in P.relators if r.family == "T2")
        ta, tb = t_relator(cycle, 0), t_relator(cycle, 2)
        for have, want in ((ta, tb), (tb, ta)):
            Q = P.with_relators(t2 + (have,), f"only-{have.provenance[:6]}")
            cert = prove_trivial(Q, want.word)
            assert cert is not None and replay_certificate(Q, cert)

    def test_square_rotation_chain(self):
        results = derive_t3_rotations(SQUARE)
        assert len(results) == 3
        for _, Q, cert in results:
            assert cert is not None and replay_certificate(Q, cert)

    def test_triangle_chain_skips_a_rotation_without_t3(self):
        # On the (2,2,1) triangle rotations 0 and 1 hold (T3) relators and
        # rotation 2 does not: going backwards from base 0 the chain skips
        # rotation 2 and certifies rotation 1.
        (cycle,) = chordless_cycles(TRIANGLE_221)
        assert [t3_qualifies(cycle, a) for a in range(3)] == [
            True, True, False]
        (result,) = derive_t3_rotations(TRIANGLE_221)
        a, Q, cert = result
        assert a == 1
        assert cert is not None and replay_certificate(Q, cert)

    def test_pentagon_rotation_chain(self):
        results = derive_t3_rotations(PENTAGON)
        assert len(results) == 4
        for _, Q, cert in results:
            assert cert is not None and replay_certificate(Q, cert)

    def test_square_chain_from_any_base(self):
        for base in range(4):
            for _, Q, cert in derive_t3_rotations(SQUARE, base=base):
                assert cert is not None and replay_certificate(Q, cert)

    def test_paper_form_of_triangle_t3_is_equivalent(self):
        # the worked triangle example displays the commutator with p
        # inverted; both forms must be consequences of the presentation
        P = artin_presentation(TRIANGLE_221)
        for w in (Word((1, -2, -3, 2, -1, -2, 3, 2)),
                  Word((2, -3, -1, 3, -2, -3, 1, 3))):
            cert = prove_trivial(P, w)
            assert cert is not None and replay_certificate(P, cert)


class TestVerifyHomomorphism:
    def test_phi_on_local_picture_a(self):
        G = Diagram(3, ((3, 2, 1), (1, 2, 1)))  # both arrows into k = 2
        report = verify_homomorphism(phi(G, 2))
        assert report.status == "PASS"
        assert all(c.certificate is not None for c in report.checks)

    def test_delta_on_square(self):
        report = verify_homomorphism(delta(SQUARE))
        assert report.status == "PASS"

    def test_delta_on_triangle_and_weighted_square(self):
        for G in (TRIANGLE_221, SQUARE_1212):
            assert verify_homomorphism(delta(G)).status == "PASS"

    def test_corrupted_map_fails_via_quotient(self):
        G = DYNKIN["A3"]
        good = phi(G, 2)
        images = list(good.images)
        images[0] = Word((1,))  # drop the required conjugation
        bad = GroupMap(good.source, good.target, tuple(images), "corrupt")
        report = verify_homomorphism(bad)
        assert report.status == "FAIL"
        assert any(c.coxeter_trivial is False for c in report.checks)

    def test_budget_limited_is_inconclusive(self):
        report = verify_homomorphism(
            phi(SQUARE, 1), budget=SearchBudget(max_nodes=1)
        )
        assert report.status == "INCONCLUSIVE"
        assert any(c.budget_limited for c in report.checks)


class TestVerifyMutationInvariance:
    def test_a3_every_vertex(self):
        for k in (1, 2, 3):
            report = verify_mutation_invariance(DYNKIN["A3"], k)
            assert report.status == "PASS"
            assert report.roundtrips_exact

    def test_triangle_every_vertex(self):
        for k in (1, 2, 3):
            assert verify_mutation_invariance(TRIANGLE_221, k).status == "PASS"

    def test_weighted_square_instance(self):
        # the four-vertex case with a weight-2 chord collapsing
        G = Diagram(4, ((2, 1, 1), (1, 4, 2), (3, 4, 1), (2, 3, 2), (4, 2, 2)))
        assert verify_mutation_invariance(G, 1).status == "PASS"

    def test_builds_two_presentations(self):
        # psi's call to phi builds the source and target; phi's map reuses them
        built = []

        def presenter(G):
            built.append(G)
            return artin_presentation(G)

        report = verify_mutation_invariance(DYNKIN["A3"], 2, presenter=presenter)
        assert report.status == "PASS"
        assert len(built) == 2

    @pytest.mark.parametrize("name", DYNKIN)
    def test_maps_match_phi_and_psi(self, name):
        # phi's map is rebuilt on psi's presentations; it must not drift.
        G = DYNKIN[name]
        for k in range(1, G.n + 1):
            report = verify_mutation_invariance(G, k)
            assert report.phi_report == verify_homomorphism(phi(G, k)), k
            assert report.psi_report == verify_homomorphism(psi(G, k)), k

    def test_report_json_shape(self):
        report = verify_mutation_invariance(DYNKIN["A2"], 1)
        obj = report.to_json()
        assert obj["status"] == "PASS"
        assert obj["phi"]["map"] == "Phi(1)"
        assert obj["psi"]["relators"][0]["certificate"] is not None


# (abelianization_ok, coxeter_trivial, certificate found) -> status, over
# every combination `verify_homomorphism` can produce: the search runs only
# when neither filter refutes the word.
REACHABLE_CHECKS = {
    (False, True, False): FAIL,
    (False, False, False): FAIL,
    (False, None, False): FAIL,
    (True, False, False): FAIL,
    (True, True, True): PASS,
    (True, None, True): PASS,
    (True, True, False): INCONCLUSIVE,
    (True, None, False): INCONCLUSIVE,
}


class TestVerdictChain:
    @pytest.mark.parametrize("combination, status", REACHABLE_CHECKS.items(),
                             ids=map(str, REACHABLE_CHECKS))
    def test_relator_status(self, combination, status):
        ab, cox, found = combination
        P = artin_presentation(DYNKIN["A2"])
        r = P.relators[0]
        cert = prove_trivial(P, r.word) if found else None
        check = RelatorCheck(r, r.word, cox, ab, cert)
        assert check.status == status
        assert check.budget_limited == (status == INCONCLUSIVE)
        assert check.to_json()["budget_limited"] == check.budget_limited

    def test_worst_of_nothing_is_pass(self):
        assert worst(()) == PASS

    @pytest.mark.parametrize("statuses", product((PASS, INCONCLUSIVE, FAIL),
                                                 repeat=3))
    def test_worst_ignores_order(self, statuses):
        expected = (FAIL if FAIL in statuses else
                    INCONCLUSIVE if INCONCLUSIVE in statuses else PASS)
        for order in permutations(statuses):
            assert worst(order) == worst(iter(order)) == expected

    def test_inexact_roundtrip_fails(self):
        report = verify_mutation_invariance(DYNKIN["A2"], 1)
        assert report.status == PASS
        broken = replace(report, roundtrips_exact=False)
        assert broken.status == FAIL
        assert broken.to_json()["status"] == FAIL

    @pytest.mark.parametrize("call", (
        lambda: prove_trivial(artin_presentation(DYNKIN["A2"]), Word(())),
        lambda: verify_homomorphism(phi(DYNKIN["A3"], 2)),
        lambda: fuzz_soundness(single_generator_presentation(), 5),
        lambda: derive_t3_rotations(SQUARE),
    ), ids=("prove_trivial", "verify_homomorphism", "fuzz_soundness",
            "derive_t3_rotations"))
    def test_failed_replay_raises(self, monkeypatch, call):
        import cluster_artin.verifier as verifier_module

        monkeypatch.setattr(verifier_module, "replay_certificate",
                            lambda P, cert: False)
        with pytest.raises(VerifierError, match="failed replay"):
            call()

    @pytest.mark.parametrize("call", (
        lambda: todd_coxeter(coxeter_presentation(DYNKIN["A3"])),
        lambda: group_order(coxeter_presentation(DYNKIN["A3"])),
        lambda: verify_mutation_invariance(DYNKIN["A3"], 2),
    ), ids=("todd_coxeter", "group_order", "verify_mutation_invariance"))
    def test_invalid_table_raises(self, monkeypatch, call):
        # Every enumeration completes, but generator 1 acts as the identity,
        # so (s1 s2)^3 moves the cosets that s2 moves.
        import cluster_artin.verifier as verifier_module

        enumerate_cosets = verifier_module._enumerate

        def corrupted_enumerate(columns, subgroup=()):
            rows = yield from enumerate_cosets(columns, subgroup)
            c = columns[0][1]
            return tuple(row[:c] + (k,) + row[c + 1:]
                         for k, row in enumerate(rows))

        monkeypatch.setattr(verifier_module, "_enumerate",
                            corrupted_enumerate)
        with pytest.raises(VerifierError, match="failed validation"):
            call()


class TestFuzzSoundness:
    def test_consistency_on_small_classes(self):
        for G in (DYNKIN["A3"], TRIANGLE_221):
            stats = fuzz_soundness(artin_presentation(G), 300, seed=5)
            assert stats["words"] == 300
            assert stats["certified"] + stats["not_found"] == 300

    def test_quotient_rejects_non_relators(self):
        P = artin_presentation(DYNKIN["A3"])
        table = quotient_table(P)
        for letters in ((1,), (1, 2), (1, 2, 1, 2, -1, -2, -1, -2)):
            assert not word_trivial_in_coxeter(table, Word(letters))


class TestArtinCoxeterConsistency:
    def test_quotient_orders_agree(self):
        for name, G in DYNKIN.items():
            artin = todd_coxeter(coxeter_quotient(artin_presentation(G)))
            coxeter = todd_coxeter(coxeter_presentation(G))
            assert artin.order == coxeter.order == WEYL_ORDERS[name]


class TestMixedCycleRotationStatus:
    def test_status_is_recorded_not_assumed(self):
        # The weighted square's unqualified rotations carry braid-type
        # relations in affine mode; record whether they follow from the
        # finite presentation instead of asserting it.
        from cluster_artin import affine_artin_presentation

        P = artin_presentation(SQUARE_1212)
        A = affine_artin_presentation(SQUARE_1212)
        statuses = {}
        for r in A.relators:
            if r.family != "AffineT3":
                continue
            cert = prove_trivial(P, r.word, SearchBudget(max_nodes=60_000))
            if cert is not None:
                assert replay_certificate(P, cert)
            statuses[r.provenance] = cert is not None
        assert len(statuses) == 4  # recorded for every rotation
        # the two finite (T3) rotations are relators, so они certify
        assert sum(statuses.values()) >= 2

    def test_triangle_braid_rotation_follows(self):
        # guaranteed by the auxiliary braid-word lemma
        from cluster_artin import affine_artin_presentation

        P = artin_presentation(TRIANGLE_221)
        A = affine_artin_presentation(TRIANGLE_221)
        braid3 = [r for r in A.relators
                  if r.family == "AffineT3" and "^3" in r.provenance]
        assert len(braid3) == 1
        cert = prove_trivial(P, braid3[0].word)
        assert cert is not None and replay_certificate(P, cert)
