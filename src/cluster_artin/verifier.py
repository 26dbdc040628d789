"""Word triviality certification and homomorphism verification.

Three layers, cheapest first.  The abelianization filter is a necessary
condition: the word's exponent sums must be an integer combination of the
relators'.  Todd-Coxeter coset enumeration decides words exactly in the
finite Coxeter quotient (the Artin presentation plus involution relators).
Each involution gets one self-inverse column, so its relator is enforced by
the table itself rather than scanned.  Every finished table is validated, so
a complete one over the trivial subgroup is the regular representation: a
word is trivial exactly when it fixes coset 0, one that moves it is
refuted, and only that one walk is made; a capped table decides nothing.
Finally a bounded best-first search over relator insertions either produces
a replayable proof certificate of triviality in the Artin group itself or
reports NotFound, which is always inconclusive and never a claim of
nontriviality.  Each insertion is reduced by `splice`, which cancels only at
the two seams.

`prove_trivial` replays each certificate by an independent code path before
returning it; a replay failure, or in the soundness fuzz (which searches
every word) a certificate for a word the quotient or the abelianization
rejects, is raised as a hard error rather than recorded.  `worst` folds the
verdict of each relator into those of its map, instance and run.

Group orders (the `enumerate` census) come from `group_order`, a parabolic
descent that needs no table of the whole group: the index of the subgroup
generated by all generators but one, found by coset enumeration over that
subgroup, times the order of the sub-presentation on those generators, found
the same way, bounds the order from above.  A stabilizer chain of the
permutation action on the cosets bounds it from below, and when the two meet
the order is proved.  Otherwise the same race, alone, over the trivial
subgroup on the same columns decides it.  Coset enumeration has one
implementation, `_enumerate`, which can pause after any row and resume, and
one loop that runs it and hands out each table it finishes, validated, as a
`CosetTable`, `_race`: `todd_coxeter` runs one enumeration in it to
completion or to the cap, and the descent races the candidate subgroups in
it, always advancing the one with the fewest cosets defined, so no loser
grows past the winner by more than a row.  No state outlives a run: the
census passes one memo to every `group_order` call, and `verify` one to
every `verify_mutation_invariance` and `fuzz_soundness` call, so each
distinct quotient table and move list is computed once per run, and each
order once per run up to relabelling of the generators.  Relabelling them,
rotating or inverting a relator, and reordering or repeating relators leave
the presented group the same, so the census memo keeps an order under a form
that those changes leave alone as well as under the exact relator letters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from math import prod

from .diagram import Diagram, _least_placements
from .mapping import (GroupMap, Presenter, comparison_map, compose, psi,
                      transport)
from .presentation import (
    Presentation,
    Relator,
    Word,
    artin_presentation,
    coxeter_quotient,
    free_reduce,
    least_cyclic_rotation,
    splice,
    t_relator,
    t3_qualifies,
)


class VerifierError(RuntimeError):
    """Internal inconsistency: bad certificate or layer disagreement."""


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration


@dataclass(frozen=True)
class CosetTable:
    """Action of the generators on the cosets of H = <subgroup>.

    Letter x acts on coset k as rows[k][col[x]], in the layout `_columns`
    gives: an involution's +g and -g share one self-inverse column, and any
    other generator has a column and an inverse column.  So a table of the
    Coxeter quotient has one entry per generator per coset.  Coset 0 is H
    itself.  Over the trivial subgroup a complete table is the regular
    representation, so its size is the group order; over a non-trivial one
    its size is the index of H.  A complete table has at least coset 0, so
    `rows == ()` marks a capped one, which decides nothing.
    """

    col: dict[int, int]
    rows: tuple[tuple[int, ...], ...]
    subgroup: tuple[int, ...] = ()

    @property
    def status(self) -> str:
        return "complete" if self.rows else "capped"

    @property
    def order(self) -> int | None:
        """The group order: None unless complete over the trivial subgroup."""
        return len(self.rows) if self.rows and not self.subgroup else None

    def validate(self, P: Presentation) -> bool:
        """Whether the table is complete and `_valid` for P's relators."""
        col = self.col
        return bool(self.rows) and _valid(col, self.rows, [
            [col[x] for x in r.word.letters] for r in P.relators], self.subgroup)


def _valid(col: dict[int, int], rows, relator_columns,
           subgroup: tuple[int, ...]) -> bool:
    """Whether `rows` is an action of the presented group on the cosets of
    H = <subgroup>: column col[-g] inverts column col[g] (so a self-inverse
    column is an involution), every relator, given by its columns, fixes
    every coset, and every subgroup generator fixes coset 0."""
    if any(rows[0][col[g]] != 0 for g in subgroup):
        return False
    perms = list(zip(*rows))
    identity = list(range(len(rows)))
    inverse_pairs = [(col[g], col[-g]) for g in col if g > 0]
    for columns in (*inverse_pairs, *relator_columns):
        p = identity
        for c in columns:
            perm = perms[c]
            p = [perm[k] for k in p]
        if p != identity:
            return False
    return True


DEFAULT_COSET_CAP = 1_000_000


def _columns(n: int, relators: tuple[tuple[int, ...], ...]):
    """The column layout of a coset enumeration over generators 1..n.

    A generator with an involution relator, (g, g) or (-g, -g), gets one
    self-inverse column shared by +g and -g, and its involution relators are
    not scanned, because the shared column already enforces them; every
    other generator gets a column and an inverse column.  Returns the column
    of each letter, the inverse of each column, and each scanned relator as
    (forward columns, backward columns, last index).  Every enumeration of
    the same relators can share it, and its tables keep it.
    """
    def is_involution(r: tuple[int, ...]) -> bool:
        return len(r) == 2 and r[0] == r[1]

    involutions = {abs(r[0]) for r in relators if is_involution(r)}
    col: dict[int, int] = {}
    inv: list[int] = []
    for g in range(1, n + 1):
        c = len(inv)
        if g in involutions:
            col[g] = col[-g] = c
            inv.append(c)
        else:
            col[g], col[-g] = c, c + 1
            inv += [c + 1, c]
    scans = [(tuple(col[x] for x in r), tuple(inv[col[x]] for x in r),
              len(r) - 1)
             for r in relators if not is_involution(r)]
    return col, inv, scans


def _enumerate(columns, subgroup: tuple[int, ...] = ()):
    """Resumable HLT-style coset enumeration over H = <subgroup>.

    A generator over a layout from `_columns`.  Before each coset it comes
    to, it yields the number of cosets defined so far, which is the number
    of rows of the working table, so a caller can stop at a cap and resume
    later; once the table closes it returns the live rows, renumbered, in
    the same layout.  The subgroup generators (positive letters) are made to
    fix coset 0 before the first scan.  Relators are scanned and filled
    coset by coset in first-definition order, with coincidences processed
    eagerly.
    """
    col, inv, scans = columns
    ncols = len(inv)
    table: list[list[int | None]] = [[None] * ncols]
    for g in subgroup:
        table[0][col[g]] = table[0][inv[col[g]]] = 0
    p: list[int] = [0]
    queue: list[int] = []

    def rep(k: int) -> int:
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def merge(a: int, b: int) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            if b < a:
                a, b = b, a
            p[b] = a
            queue.append(b)

    def coincidence(a: int, b: int) -> None:
        # A self-inverse column may point a coset at itself: then delta is
        # gamma, clearing its entry is harmless because it was already read,
        # and the transfer below makes rep(gamma) a fixed point of c.
        merge(a, b)
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            row = table[gamma]
            for c in range(ncols):
                delta = row[c]
                if delta is None:
                    continue
                ic = inv[c]
                table[delta][ic] = None
                mu, nu = rep(gamma), rep(delta)
                existing = table[mu][c]
                if existing is not None:
                    merge(nu, existing)
                elif table[nu][ic] is not None:
                    merge(mu, table[nu][ic])
                else:
                    table[mu][c] = nu
                    table[nu][ic] = mu
        queue.clear()

    def define(alpha: int, c: int) -> int:
        beta = len(table)
        row: list[int | None] = [None] * ncols
        row[inv[c]] = alpha
        table.append(row)
        p.append(beta)
        table[alpha][c] = beta
        return beta

    alpha = 0
    while alpha < len(table):
        yield len(table)
        if p[alpha] != alpha:
            alpha += 1
            continue
        for fw, bw, last in scans:
            f, i = alpha, 0
            b, j = alpha, last
            while True:
                while i <= j:
                    nxt = table[f][fw[i]]
                    if nxt is None:
                        break
                    f = nxt
                    i += 1
                else:
                    if f != b:
                        coincidence(f, b)
                    break
                while j >= i:
                    nxt = table[b][bw[j]]
                    if nxt is None:
                        break
                    b = nxt
                    j -= 1
                else:
                    coincidence(f, b)
                    break
                c = fw[i]
                if j == i:
                    table[f][c] = b
                    table[b][inv[c]] = f
                    break
                f = define(f, c)
                i += 1
            if p[alpha] != alpha:
                break
        else:
            row = table[alpha]
            for c in range(ncols):
                if row[c] is None:
                    define(alpha, c)
        alpha += 1

    # The new index of every coset; a dead one takes its representative's.
    live = [c for c in range(len(table)) if p[c] == c]
    index = [0] * len(table)
    for new, old in enumerate(live):
        index[old] = new
    for c in range(len(table)):
        if p[c] != c:
            index[c] = index[rep(c)]
    rows = []
    for old in live:
        row = table[old]
        if None in row:
            raise VerifierError("incomplete row survived enumeration")
        rows.append(tuple(map(index.__getitem__, row)))
    return tuple(rows)


def _race(columns, subgroups: list[tuple[int, ...]],
          coset_cap: int) -> CosetTable | None:
    """The table of the first of the enumerations over `subgroups` to
    complete, or None when every one defines more than `coset_cap` cosets.

    The enumeration with the fewest cosets defined so far always goes next
    (the earlier one on a tie), and one row at a time.  So a loser stops
    within one row of the winner's final count, and each is dropped as soon
    as it passes the cap.  The winner's table, whose `subgroup` names it, is
    handed out only once `_valid` has checked its rows against the scanned
    relators; failing raises.
    """
    runs = [_enumerate(columns, H) for H in subgroups]
    heap = [(1, i) for i in range(len(runs))]
    while heap:
        i = heap[0][1]
        try:
            defined = next(runs[i])
        except StopIteration as done:
            if not _valid(columns[0], done.value,
                          [fw for fw, _, _ in columns[2]], subgroups[i]):
                raise VerifierError(f"coset table over the subgroup "
                                    f"{subgroups[i]} failed validation")
            return CosetTable(columns[0], done.value, subgroups[i])
        if defined > coset_cap:
            heappop(heap)
        else:
            heapreplace(heap, (defined, i))
    return None


def todd_coxeter(P: Presentation, coset_cap: int = DEFAULT_COSET_CAP,
                 subgroup: tuple[int, ...] = ()) -> CosetTable:
    """HLT-style coset enumeration of P over H = <subgroup>.

    `subgroup` lists generators (positive letters) of H; by default H is
    trivial.  Returns the table of `_enumerate` run alone in a `_race`,
    which validates it, or a capped table (no rows) instead of raising once
    more than `coset_cap` cosets have been defined.
    """
    columns = _columns(P.n_generators,
                       tuple(r.word.letters for r in P.relators))
    return (_race(columns, [subgroup], coset_cap)
            or CosetTable(columns[0], (), subgroup))


def word_trivial_in_coxeter(table: CosetTable, w: Word) -> bool | None:
    """Whether w is the identity in the group of a table over the trivial
    subgroup; None for a capped table, which decides nothing.

    A complete table is validated and is the regular representation, so
    w = e exactly when w fixes coset 0, and a w that moves it is a definite
    refutation.
    """
    if table.subgroup:
        raise VerifierError("a table over a non-trivial subgroup cannot "
                            "decide triviality")
    if not table.rows:
        return None
    rows, col = table.rows, table.col
    cur = 0
    for x in w.letters:
        cur = rows[cur][col[x]]
    return cur == 0


# ---------------------------------------------------------------------------
# Group orders by parabolic descent

# Consecutive random elements that sift to the identity before a stabilizer
# chain short of its target counts as stalled.  A uniformly random element
# of a group sifts to the identity through a chain that is short of the
# group with probability at most 1/2.
STALL_PATIENCE = 64

# Product-replacement steps discarded before the first sifted element.  On
# the A6 and E7 censuses 0, 10, 20 and 50 steps all reach every target with
# no stall, and 20 composes the fewest permutations; 20 also stalls nowhere
# on the A7, A8, E6 and E8 censuses.
WARM_UP_STEPS = 20


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation p, then q."""
    return tuple(map(q.__getitem__, p))


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _order_lower_bound(gens: list[tuple[int, ...]], target: int) -> int:
    """A lower bound on the order of the group <gens>, built up to `target`.

    Random Schreier-Sims on permutations of range(degree), stopped as soon
    as the bound reaches `target`.  Level j holds elements of the group that
    fix the base points before b_j, and the orbit of b_j under them, each
    orbit point with an element carrying it back to b_j.  That orbit lies in
    the orbit of b_j under the pointwise stabilizer of the earlier base
    points, so at every stage the product of the orbit lengths is at most
    the group order.  Seeded product-replacement elements are sifted down
    the chain; one that does not sift to the identity joins the level where
    it stopped and every level above it.  The search ends at `target`
    (possibly on the generators alone, before any random element), or
    after STALL_PATIENCE consecutive elements that sift to the identity.
    """
    degree = len(gens[0])
    identity = tuple(range(degree))
    base: list[int] = []
    levels: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
    orbits: list[dict[int, tuple[int, ...]]] = []

    def extend(h: tuple[int, ...]) -> bool:
        """Sift h; unless it reaches the identity, add it to the chain."""
        for j, b in enumerate(base):
            back = orbits[j].get(h[b])
            if back is None:
                break
            h = _compose(h, back)
        else:
            if h == identity:
                return False
            j = len(base)
            b = next(x for x in range(degree) if h[x] != x)
            base.append(b)
            levels.append([])
            orbits.append({b: identity})
        h_inv = _inverse(h)
        for i in range(j + 1):
            levels[i].append((h, h_inv))
            orbit = orbits[i]
            fresh = []
            for x in list(orbit):
                if h[x] not in orbit:
                    orbit[h[x]] = _compose(h_inv, orbit[x])
                    fresh.append(h[x])
            for y in fresh:
                for g, g_inv in levels[i]:
                    if g[y] not in orbit:
                        orbit[g[y]] = _compose(g_inv, orbit[y])
                        fresh.append(g[y])
        return True

    def bound() -> int:
        return prod(len(orbit) for orbit in orbits)

    for g in gens:
        extend(g)
    if bound() >= target:
        return bound()
    rng = random.Random(0)
    pool = list(gens) * (10 // len(gens) + 1)
    pairs = len(pool) * (len(pool) - 1)
    accumulator = identity

    def pseudo_random() -> tuple[int, ...]:
        nonlocal accumulator
        # A uniform ordered pair of distinct positions.
        i, j = divmod(rng.randrange(pairs), len(pool) - 1)
        j += j >= i
        pool[i] = (_compose(pool[i], pool[j]) if rng.random() < 0.5
                   else _compose(pool[j], pool[i]))
        accumulator = _compose(accumulator, pool[i])
        return accumulator

    for _ in range(WARM_UP_STEPS):
        pseudo_random()
    stalled = 0
    while bound() < target and stalled < STALL_PATIENCE:
        stalled = 0 if extend(pseudo_random()) else stalled + 1
    return bound()


def _descent_candidates(m_table) -> list[int]:
    """Generators whose removal cuts no component of the graph
    {i ~ j : m_ij != 2} in two; on a connected graph, those whose removal
    leaves it connected."""
    n = len(m_table)
    adjacent = [[j for j in range(n) if j != i and m_table[i][j] != 2]
                for i in range(n)]
    candidates = []
    for v in range(n):
        stack = adjacent[v][:1]
        seen = {v, *stack}
        while stack:
            for y in adjacent[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen.issuperset(adjacent[v]):
            candidates.append(v + 1)
    return candidates


def _without_generator(n: int, m_table, relators, v: int):
    """The relators that avoid generator v, over the other generators
    relabelled in order onto 1..n-1, with m_table restricted to them."""
    def relabel(x: int) -> int:
        return x if abs(x) < v else x - 1 if x > 0 else x + 1

    keep = [i for i in range(n) if i != v - 1]
    return (n - 1,
            tuple(tuple(m_table[i][j] for j in keep) for i in keep),
            tuple(tuple(map(relabel, r)) for r in relators
                  if v not in r and -v not in r))


def group_order(P: Presentation, coset_cap: int = DEFAULT_COSET_CAP,
                memo: dict | None = None) -> int | None:
    """The order of the group G that P presents; None when undecided.

    Parabolic descent.  The generators v from `_descent_candidates` give
    the candidate subgroups H = <all generators but v>, whose coset
    enumerations `_race` runs side by side, always advancing the one with
    the fewest cosets defined, until the first completes; any that passes
    `coset_cap` is dropped.  So a descent defines at most the number of
    candidates times the winner's count (times the cap on an infinite
    group, before None).  The relators of P that avoid v present a group
    mapping onto H; let u be its order, found the same way.  Then
    |G| = [G:H] |H| <= [G:H] u.  The validated coset table of H is a
    permutation action of G, so a stabilizer chain of its image that
    reaches [G:H] u proves |G| = [G:H] u.  Otherwise (the action is
    unfaithful, u is None or the chain stalls) `_race` runs alone over the
    trivial subgroup on the same columns, and the size of that full table
    decides.  None means that no candidate completed under `coset_cap`, as
    for an infinite group, or that the full table capped.

    The sub-presentations are carried as (generator count, m_table,
    relator letters).  `memo` maps each order decided so far, keyed by
    `coset_cap` with that triple and again with its `_relabelled_form`, so
    a caller deciding many related presentations (a class census) and
    passing one memo to every call decides each once up to relabelling of
    its generators.  None is never kept: an undecided presentation, and
    every relabelled twin of it, is descended again when met again.
    """
    if memo is None:
        memo = {}
    return _order(P.n_generators, P.m_table,
                  tuple(r.word.letters for r in P.relators), coset_cap, memo)


def _order(n: int, m_table, relators, coset_cap: int,
           memo: dict) -> int | None:
    """`group_order` of the presentation (n, m_table, relators).

    A decided order is kept under the exact key and under the presentation's
    `_relabelled_form`, so a relabelled twin is looked up rather than
    descended.  None is kept under neither: a presentation that capped, and
    any twin of it, runs its own descent each time it is met."""
    exact = (coset_cap, n, m_table, relators)
    if exact in memo:
        return memo[exact]
    form = _relabelled_form(n, m_table, relators)
    keys = [exact] if form is None else [exact, (coset_cap, form)]
    order = memo.get(keys[-1])
    if order is None:
        order = _descend(n, m_table, relators, coset_cap, memo)
    if order is not None:
        for key in keys:
            memo[key] = order
    return order


def _relabelled_form(n: int, m_table, relators):
    """A form of (n, m_table, relators) that is the same exactly for the
    presentations one relabelling of the generators turns into each other,
    up to the order, repetition, rotation and inversion of relators; None
    when too many placements tie to search.

    The generators are placed by the least column-wise encoding of the
    m-table (`diagram._least_placements`, as for diagram canonical forms),
    and the placements that tie are told apart by the least sorted set of
    placed relators, each written as the least cyclic rotation of itself or
    its inverse.  Each of those changes leaves the presented group the same
    up to isomorphism, so equal forms have equal orders.
    """
    # Negated, so that the least encoding places generators joined by long
    # braids first, and few partial placements tie on the commuting pairs.
    into = [()] + [(0, *(-m for m in column)) for column in zip(*m_table)]
    placements, encoding = _least_placements(into)
    if placements is None:
        return None
    # Involutions and braid words (s_i s_j)^k have their written form
    # directly: (-p, -p), and (-max(p, q), -min(p, q))^k for the positions
    # p, q of their generators.
    involutions, braids, words = [], [], []
    for r in relators:
        if len(r) == 2 and r[0] == r[1]:
            involutions.append(abs(r[0]))
        elif (len(r) > 1 and 0 < r[0] != r[1] > 0
              and r == r[:2] * (len(r) // 2)):
            braids.append((r[0], r[1], len(r) // 2))
        else:
            words.append(r)
    least = None
    for placement in placements:
        label = {}
        for position, g in enumerate(placement, 1):
            label[g], label[-g] = position, -position
        placed = {(-label[g],) * 2 for g in involutions}
        for i, j, k in braids:
            p, q = label[i], label[j]
            placed.add((-p, -q) * k if p > q else (-q, -p) * k)
        for r in words:
            word = tuple(map(label.__getitem__, r))
            inverse = tuple(-x for x in reversed(word))
            placed.add(min(least_cyclic_rotation(word),
                           least_cyclic_rotation(inverse)))
        placed = tuple(sorted(placed))
        if least is None or placed < least:
            least = placed
    return n, encoding, least


def _descend(n: int, m_table, relators, coset_cap: int,
             memo: dict) -> int | None:
    """One level of the descent in `group_order`: race the candidates (the
    race validates the winner's table), find u through the memo, then prove
    the bound or fall back to the race, alone, over the trivial subgroup on
    the same columns."""
    if n == 0:
        return 1
    candidates = _descent_candidates(m_table)
    subgroups = [tuple(g for g in range(1, n + 1) if g != v)
                 for v in candidates]
    columns = _columns(n, relators)
    table = _race(columns, subgroups, coset_cap)
    if table is None:
        return None
    v = candidates[subgroups.index(table.subgroup)]
    u = _order(*_without_generator(n, m_table, relators, v), coset_cap, memo)
    if u is not None:
        rows, col = table.rows, table.col
        bound = len(rows) * u
        gens = [tuple(row[col[g]] for row in rows) for g in range(1, n + 1)]
        if _order_lower_bound(gens, bound) == bound:
            return bound
    full = _race(columns, [()], coset_cap)
    return None if full is None else full.order


# ---------------------------------------------------------------------------
# Abelianization filter


def abelianization_check(P: Presentation, w: Word) -> bool:
    """Necessary condition for w = e: the exponent-sum vector of w is an
    integer combination of the relators' vectors (an involution s_i^2 gives
    2 e_i), so w is trivial in the abelianization.

    Integer elimination, one generator at a time: Euclid's algorithm on that
    entry reduces the relator vectors to one pivot, which must divide the
    entry of w and then clears it.
    """
    n = P.n_generators
    v = w.exponent_sums(n)
    if not any(v):
        return True
    rows = [e for r in P.relators if any(e := r.word.exponent_sums(n))]
    for i in range(n):
        pivot, rest = (0,) * n, []
        for r in rows:
            while r[i]:
                q = pivot[i] // r[i]
                pivot, r = r, [a - q * b for a, b in zip(pivot, r)]
            rest.append(r)
        q = v[i] // pivot[i] if pivot[i] else 0
        v = [a - q * b for a, b in zip(v, pivot)]
        if v[i]:
            return False
        rows = rest
    return True


# ---------------------------------------------------------------------------
# Certified rewriting search


@dataclass(frozen=True)
class ProofStep:
    """Insert a cyclic rotation of a relator (or its inverse) at a position."""

    position: int
    relator_index: int
    rotation: int
    inverted: bool

    def to_json(self) -> list:
        return [self.position, self.relator_index, self.rotation,
                1 if self.inverted else 0]


@dataclass(frozen=True)
class ProofCertificate:
    """Replayable triviality proof: the steps carry `start` to the empty word."""

    start: Word
    steps: tuple[ProofStep, ...]

    def to_json(self) -> dict:
        return {
            "start": self.start.to_json(),
            "steps": [s.to_json() for s in self.steps],
        }


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for the insertion search.

    Words may grow to the start length plus len_slack; max_nodes counts
    attempted insertions.
    """

    max_nodes: int = 1_000_000
    len_slack: int = 16

    def __post_init__(self):
        for name, least in (("max_nodes", 1), ("len_slack", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:  # type(): no booleans
                raise ValueError(f"{name} must be an integer of at least "
                                 f"{least}, got {value!r}")

    def limit_for(self, w: Word) -> int:
        return len(w) + self.len_slack


DEFAULT_BUDGET = SearchBudget()


def _moves_for(P: Presentation, memo: dict | None = None):
    """All distinct rotated / inverted relator forms, tagged for certificates.

    Each move is (tag, -first, -last, reduced): the negated end letters of
    the raw rotated form pick insertion seams, and `reduced` is its free
    reduction, which splices to the same word because free reduction is
    confluent.  A rotation of a relator that is not cyclically reduced is
    itself not reduced.  `memo` keeps the list by (generator count, relator
    letters).
    """
    if memo is None:
        memo = {}
    key = (P.n_generators, tuple(r.word.letters for r in P.relators))
    if key in memo:
        return memo[key]
    moves = []
    seen = set()
    for rid, rel in enumerate(P.relators):
        core = rel.word.letters
        for rot in range(len(core)):
            rotated = core[rot:] + core[:rot]
            for inverted in (False, True):
                letters = (tuple(-x for x in reversed(rotated))
                           if inverted else rotated)
                if letters in seen:
                    continue
                seen.add(letters)
                moves.append(((rid, rot, inverted), -letters[0], -letters[-1],
                              free_reduce(letters)))
    memo[key] = tuple(moves)
    return memo[key]


def prove_trivial(
    P: Presentation, w: Word, budget: SearchBudget = DEFAULT_BUDGET,
    memo: dict | None = None,
) -> ProofCertificate | None:
    """Search for a proof that w = e in the group presented by P.

    Best-first over relator insertions: at every state each rotated relator
    form may be inserted at either end of the word or at any seam where at
    least one letter cancels.  States are deduplicated by their reduced word;
    shorter words are expanded first.  Success yields a certificate, already
    replayed against P (a failed replay raises); None means the node budget
    ran out or every word under the length bound was reached, and says
    nothing about nontriviality.  The move list of P is kept in `memo`, the
    run's memo.
    """
    start = w.letters
    # parent[word] = (previous word, position, (rid, rot, inverted))
    parent: dict[tuple[int, ...], tuple | None] = {start: None}

    def reconstruct(end: tuple[int, ...]) -> ProofCertificate:
        steps = []
        cur = end
        while parent[cur] is not None:
            cur, pos, (rid, rot, inverted) = parent[cur]  # type: ignore[misc]
            steps.append(ProofStep(pos, rid, rot, inverted))
        cert = ProofCertificate(w, tuple(reversed(steps)))
        if not replay_certificate(P, cert):
            raise VerifierError(f"certificate for {start} failed replay")
        return cert

    if not start:
        return reconstruct(start)
    maxlen = budget.limit_for(w)
    moves = _moves_for(P, memo)
    heap: list[tuple[int, int, tuple[int, ...]]] = [(len(start), 0, start)]
    counter = 1
    nodes = 0
    max_nodes = budget.max_nodes

    while heap:
        _, _, cur = heappop(heap)
        size = len(cur)
        seam_after: dict[int, list[int]] = {}
        for idx, x in enumerate(cur):
            seam_after.setdefault(x, []).append(idx)
        for tag, neg_first, neg_last, letters in moves:
            positions = {0, size}
            for idx in seam_after.get(neg_first, ()):
                positions.add(idx + 1)
            for idx in seam_after.get(neg_last, ()):
                positions.add(idx)
            for pos in sorted(positions):
                nodes += 1
                if nodes > max_nodes:
                    return None
                nxt = splice(cur, pos, letters)
                if len(nxt) > maxlen or nxt in parent:
                    continue
                parent[nxt] = (cur, pos, tag)
                if not nxt:
                    return reconstruct(nxt)
                heappush(heap, (len(nxt), counter, nxt))
                counter += 1
    return None


def replay_certificate(P: Presentation, cert: ProofCertificate) -> bool:
    """Independent certificate replay; True when the steps end at the empty word.

    Deliberately unlike the search: insertion by list slicing and a naive
    repeated-scan cancellation loop.
    """
    word = list(cert.start.letters)
    for step in cert.steps:
        if not 0 <= step.relator_index < len(P.relators):
            return False
        core = P.relators[step.relator_index].word.letters
        if not 0 <= step.rotation < len(core):
            return False
        rotated = core[step.rotation:] + core[:step.rotation]
        if step.inverted:
            rotated = tuple(-x for x in reversed(rotated))
        if not 0 <= step.position <= len(word):
            return False
        word[step.position:step.position] = rotated
        changed = True
        while changed:
            changed = False
            for idx in range(len(word) - 1):
                if word[idx] == -word[idx + 1]:
                    del word[idx:idx + 2]
                    changed = True
                    break
    return not word


# ---------------------------------------------------------------------------
# Verification reports


def quotient_table(P: Presentation, coset_cap: int = DEFAULT_COSET_CAP,
                   memo: dict | None = None) -> CosetTable:
    """Coset table of the Coxeter quotient of P, kept in `memo` (the run's
    memo) by (coset_cap, generator count, relator letters)."""
    if memo is None:
        memo = {}
    key = (coset_cap, P.n_generators, tuple(r.word.letters for r in P.relators))
    if key not in memo:
        memo[key] = todd_coxeter(coxeter_quotient(P), coset_cap)
    return memo[key]


PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"
EXIT_CODES = {PASS: 0, FAIL: 2, INCONCLUSIVE: 3}


def worst(statuses) -> str:
    """The most severe status, PASS < INCONCLUSIVE < FAIL; PASS for none."""
    return max(statuses, key=(PASS, INCONCLUSIVE, FAIL).index, default=PASS)


@dataclass(frozen=True)
class RelatorCheck:
    relator: Relator
    transported: Word
    coxeter_trivial: bool | None
    abelianization_ok: bool
    certificate: ProofCertificate | None

    @property
    def status(self) -> str:
        """FAIL when the quotient or the abelianization refutes the word, PASS
        when a certificate proves it trivial, INCONCLUSIVE otherwise."""
        if self.coxeter_trivial is False or not self.abelianization_ok:
            return FAIL
        return INCONCLUSIVE if self.certificate is None else PASS

    @property
    def budget_limited(self) -> bool:
        return self.status == INCONCLUSIVE

    def to_json(self) -> dict:
        return {
            "relator": self.relator.to_json(),
            "transported": self.transported.to_json(),
            "coxeter_trivial": self.coxeter_trivial,
            "abelianization_ok": self.abelianization_ok,
            "certificate": None if self.certificate is None
            else self.certificate.to_json(),
            "budget_limited": self.budget_limited,
        }


@dataclass(frozen=True)
class HomReport:
    """Per-relator verification record for one generator map."""

    map_label: str
    checks: tuple[RelatorCheck, ...]
    coxeter_order: int | None

    @property
    def status(self) -> str:
        return worst(c.status for c in self.checks)

    def to_json(self) -> dict:
        return {
            "map": self.map_label,
            "status": self.status,
            "coxeter_order": self.coxeter_order,
            "relators": [c.to_json() for c in self.checks],
        }


def verify_homomorphism(
    gmap: GroupMap,
    budget: SearchBudget = DEFAULT_BUDGET,
    coset_cap: int = DEFAULT_COSET_CAP,
    memo: dict | None = None,
) -> HomReport:
    """Check that every source relator maps to a trivial word in the target.

    Each transported relator is run through the abelianization filter, the
    Coxeter quotient decision (`word_trivial_in_coxeter`, None when the
    table caps), and, unless one of those refutes it, the certificate
    search.  FAIL records a definite counterexample; INCONCLUSIVE marks
    budget-limited searches and capped tables, never silence.
    """
    if memo is None:
        memo = {}
    target = gmap.target
    table = quotient_table(target, coset_cap, memo)
    checks = []
    for r in gmap.source.relators:
        image = transport(gmap, r.word)
        ab = abelianization_check(target, image)
        cox = word_trivial_in_coxeter(table, image)
        cert = (prove_trivial(target, image, budget, memo)
                if ab and cox is not False else None)
        checks.append(RelatorCheck(r, image, cox, ab, cert))
    return HomReport(gmap.label, tuple(checks), table.order)


@dataclass(frozen=True)
class InvarianceReport:
    """Result of checking one mutation-invariance instance."""

    diagram: Diagram
    vertex: int
    phi_report: HomReport
    psi_report: HomReport
    roundtrips_exact: bool

    @property
    def status(self) -> str:
        """The worst verdict of the two maps; FAIL on an inexact round trip."""
        return worst((self.phi_report.status, self.psi_report.status,
                      PASS if self.roundtrips_exact else FAIL))

    def to_json(self) -> dict:
        return {
            "diagram": self.diagram.to_json(),
            "vertex": self.vertex,
            "status": self.status,
            "roundtrips_exact": self.roundtrips_exact,
            "phi": self.phi_report.to_json(),
            "psi": self.psi_report.to_json(),
        }


def verify_mutation_invariance(
    G: Diagram,
    k: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    coset_cap: int = DEFAULT_COSET_CAP,
    presenter: Presenter = artin_presentation,
    memo: dict | None = None,
) -> InvarianceReport:
    """Certify one instance of mutation invariance at vertex k.

    Verifies the comparison map and its reverse composite as homomorphisms
    and checks that both round trips are the identity on generators as free
    words, with no relations applied.  Only `psi` presents the instance;
    phi's map is built on its two presentations, swapped back.
    """
    g = psi(G, k, presenter)
    f = comparison_map(G, k, k, g.target, g.source)
    roundtrips = all(image.letters == (i,)
                     for h in (compose(g, f), compose(f, g))
                     for i, image in enumerate(h.images, 1))
    phi_report = verify_homomorphism(f, budget, coset_cap, memo)
    psi_report = verify_homomorphism(g, budget, coset_cap, memo)
    return InvarianceReport(G, k, phi_report, psi_report, roundtrips)


FUZZ_BUDGET = SearchBudget(max_nodes=600, len_slack=8)


def fuzz_soundness(
    P: Presentation,
    n_words: int,
    seed: int = 0,
    budget: SearchBudget = FUZZ_BUDGET,
    coset_cap: int = DEFAULT_COSET_CAP,
    memo: dict | None = None,
) -> dict:
    """Cross-check the prover against the Coxeter quotient on random words.

    Every certificate the small-budget search emits (each replayed by
    `prove_trivial`) must pass the abelianization filter and be accepted by
    the quotient; a violation is a soundness bug and raises.  Returns
    summary counts; NotFound outcomes are recorded, never interpreted.
    """
    if memo is None:
        memo = {}
    rng = random.Random(seed)
    table = quotient_table(P, coset_cap, memo)
    stats = {"words": 0, "quotient_rejected": 0, "quotient_trivial": 0,
             "certified": 0, "not_found": 0}
    for _ in range(n_words):
        length = rng.randint(4, 12)
        letters = tuple(
            rng.randint(1, P.n_generators) * rng.choice((1, -1))
            for _ in range(length)
        )
        w = Word(letters)
        stats["words"] += 1
        trivial = word_trivial_in_coxeter(table, w)
        if trivial is not None:
            stats["quotient_trivial" if trivial else "quotient_rejected"] += 1
        cert = prove_trivial(P, w, budget, memo)
        if cert is None:
            stats["not_found"] += 1
            continue
        stats["certified"] += 1
        if trivial is False:
            raise VerifierError(
                f"fuzz certificate for quotient-rejected word {w.letters}"
            )
        if not abelianization_check(P, w):
            raise VerifierError(
                f"fuzz certificate for abelianization-rejected word {w.letters}"
            )
    return stats


# ---------------------------------------------------------------------------
# Rotation-closure replay (redundancy lemmas)


def derive_t3_rotations(
    G: Diagram,
    cycle_index: int = 0,
    base: int | None = None,
    budget: SearchBudget = DEFAULT_BUDGET,
):
    """Derive every qualifying (T3) rotation from a single one plus (T2).

    Follows the induction of the symmetry lemma: rotations are proved one
    step backwards around the cycle, each proof allowed to cite previously
    derived rotations.  Returns (a, presentation, certificate) triples; the
    certificate (replayed by `prove_trivial`) is None when a link could not
    be found within budget.
    """
    from .diagram import chordless_cycles

    P = artin_presentation(G)
    cycle = chordless_cycles(G)[cycle_index]
    d = len(cycle.vertices)
    qualifying = [a for a in range(d) if t3_qualifies(cycle, a)]
    if base is None:
        base = qualifying[0]
    if base not in qualifying:
        raise VerifierError(f"rotation {base} holds no (T3) relator")
    t2 = tuple(r for r in P.relators if r.family == "T2")
    proven = [t_relator(cycle, base)]
    results = []
    for offset in range(1, d):
        a = (base - offset) % d
        if a not in qualifying:
            continue
        Q = P.with_relators(t2 + tuple(proven), f"chain{base}-{a}")
        cert = prove_trivial(Q, t_relator(cycle, a).word, budget)
        results.append((a, Q, cert))
        if cert is not None:
            proven.append(t_relator(cycle, a))
    return results
