"""Word triviality certification and homomorphism verification.

Three layers, cheapest first.  The abelianization filter is a necessary
condition computed from exponent sums.  Todd-Coxeter coset enumeration
decides words exactly in the finite Coxeter quotient (the Artin presentation
plus involution relators).  Each involution gets one self-inverse column, so
its relator is enforced by the table itself rather than scanned.  A complete
table over the trivial subgroup is the regular representation, so a word is
trivial exactly when it fixes coset 0, and only that one walk is made.
Finally a bounded best-first search over relator insertions either produces
a replayable proof certificate of triviality in the Artin group itself or
reports NotFound, which is always inconclusive and never a claim of
nontriviality.  Each insertion is reduced by `splice`, which cancels only at
the two seams.

Certificates are replayed by an independent code path before being reported;
a replay failure or a certificate for a quotient-rejected word is raised as a
hard error rather than recorded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush

from .diagram import Diagram
from .mapping import GroupMap, Presenter, compose, phi, psi, transport
from .presentation import (
    Presentation,
    Relator,
    Word,
    artin_presentation,
    coxeter_quotient,
    free_reduce,
    splice,
    t_relator,
    t3_qualifies,
)


class VerifierError(RuntimeError):
    """Internal inconsistency: bad certificate or layer disagreement."""


class CappedTableError(VerifierError):
    """A capped coset table cannot decide word triviality."""


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration


@dataclass(frozen=True)
class CosetTable:
    """Action of the generators on cosets of the trivial subgroup.

    Columns alternate generator, inverse: letter +g uses column 2(g-1) and
    -g uses column 2(g-1)+1.  A complete table is the regular representation,
    so its size is the group order.
    """

    n_generators: int
    rows: tuple[tuple[int, ...], ...]
    status: str  # "complete" | "capped"

    @property
    def order(self) -> int | None:
        return len(self.rows) if self.status == "complete" else None

    def validate(self, P: Presentation) -> bool:
        """Check the permutation property and that every relator scans home."""
        if self.status != "complete":
            return False
        size = len(self.rows)
        for c in range(2 * self.n_generators):
            column = [row[c] for row in self.rows]
            if sorted(column) != list(range(size)):
                return False
        for rel in P.relators:
            cols = [_col(x) for x in rel.word.letters]
            for start in range(size):
                cur = start
                for c in cols:
                    cur = self.rows[cur][c]
                if cur != start:
                    return False
        return True


def _col(letter: int) -> int:
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


DEFAULT_COSET_CAP = 1_000_000
# Compact the working table once it is this large and mostly dead.
COMPACT_THRESHOLD = 4096


def todd_coxeter(P: Presentation, coset_cap: int = DEFAULT_COSET_CAP) -> CosetTable:
    """HLT-style coset enumeration of P over the trivial subgroup.

    A generator with an involution relator, (g, g) or (-g, -g), gets one
    self-inverse column shared by +g and -g, and its involution relators are
    not scanned, because the shared column already enforces them; every
    other generator gets a column and an inverse column.  Relators are
    scanned and filled coset by coset in first-definition order, with
    coincidences processed eagerly and the table compacted when mostly dead.
    The finished table is expanded to the two-columns-per-generator layout
    of CosetTable.  Returns a capped table instead of raising once more than
    `coset_cap` cosets have been defined.
    """
    def is_involution(r: Relator) -> bool:
        return len(r.word) == 2 and r.word.letters[0] == r.word.letters[1]

    involutions = {abs(r.word.letters[0]) for r in P.relators
                   if is_involution(r)}
    col: dict[int, int] = {}
    inv: list[int] = []
    for g in range(1, P.n_generators + 1):
        c = len(inv)
        if g in involutions:
            col[g] = col[-g] = c
            inv.append(c)
        else:
            col[g], col[-g] = c, c + 1
            inv += [c + 1, c]
    ncols = len(inv)
    # Each relator as (forward columns, backward columns, last index).
    scans = [
        (tuple(col[x] for x in r.word.letters),
         tuple(inv[col[x]] for x in r.word.letters),
         len(r.word) - 1)
        for r in P.relators if not is_involution(r)
    ]
    table: list[list[int | None]] = [[None] * ncols]
    p: list[int] = [0]
    queue: list[int] = []
    defined = 1
    n_dead = 0

    def rep(k: int) -> int:
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def merge(a: int, b: int) -> None:
        nonlocal n_dead
        a, b = rep(a), rep(b)
        if a != b:
            if b < a:
                a, b = b, a
            p[b] = a
            n_dead += 1
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
        nonlocal defined
        beta = len(table)
        row: list[int | None] = [None] * ncols
        row[inv[c]] = alpha
        table.append(row)
        p.append(beta)
        table[alpha][c] = beta
        defined += 1
        return beta

    def renumber() -> tuple[list[int], list[int]]:
        """The live cosets, and the new index of every coset (a dead one
        takes its representative's)."""
        live = [c for c in range(len(table)) if p[c] == c]
        index = [0] * len(table)
        for new, old in enumerate(live):
            index[old] = new
        for c in range(len(table)):
            if p[c] != c:
                index[c] = index[rep(c)]
        return live, index

    threshold = COMPACT_THRESHOLD
    alpha = 0
    while alpha < len(table):
        if defined > coset_cap:
            return CosetTable(P.n_generators, (), "capped")
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
        if len(table) > threshold and n_dead * 2 > len(table):
            live, index = renumber()
            alpha = sum(1 for c in live if c < alpha)
            table[:] = [[None if e is None else index[e] for e in table[old]]
                        for old in live]
            p[:] = range(len(live))
            n_dead = 0

    live, index = renumber()
    layout = [col[x] for g in range(1, P.n_generators + 1) for x in (g, -g)]
    rows = []
    for old in live:
        row = table[old]
        if None in row:
            raise VerifierError("incomplete row survived enumeration")
        rows.append(tuple(index[row[c]] for c in layout))
    return CosetTable(P.n_generators, tuple(rows), "complete")


def word_trivial_in_coxeter(table: CosetTable, w: Word) -> bool:
    """Whether w is the identity in the group of a complete table.

    A complete table over the trivial subgroup is the regular
    representation, so w = e exactly when w fixes coset 0.
    """
    if table.status != "complete":
        raise CappedTableError("capped table cannot decide triviality")
    rows = table.rows
    cur = 0
    for x in w.letters:
        cur = rows[cur][_col(x)]
    return cur == 0


# ---------------------------------------------------------------------------
# Abelianization filter


def abelianization_check(P: Presentation, w: Word) -> bool:
    """Necessary condition for w = e: exponent sums vanish classwise.

    Generators joined by an odd braid length (m = 3) are conjugate, hence
    identified in the abelianization.  In a Coxeter-mode presentation the
    sums only need to vanish mod 2.
    """
    n = P.n_generators
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if P.m_table[i][j] == 3:
                parent[find(i)] = find(j)
    sums: dict[int, int] = {}
    for idx, s in enumerate(w.exponent_sums(n)):
        root = find(idx)
        sums[root] = sums.get(root, 0) + s
    if P.mode == "coxeter":
        return all(v % 2 == 0 for v in sums.values())
    return all(v == 0 for v in sums.values())


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

    max_len defaults to the start length plus len_slack; max_nodes counts
    attempted insertions.
    """

    max_nodes: int = 1_000_000
    len_slack: int = 16
    max_len: int | None = None

    def limit_for(self, w: Word) -> int:
        return self.max_len if self.max_len is not None else len(w) + self.len_slack


DEFAULT_BUDGET = SearchBudget()

_MOVE_CACHE: dict[tuple, tuple] = {}


def _presentation_key(P: Presentation) -> tuple:
    return (P.n_generators, tuple(r.word.letters for r in P.relators))


def _moves_for(P: Presentation):
    """All distinct rotated / inverted relator forms, tagged for certificates.

    Each move is (tag, -first, -last, reduced): the negated end letters of
    the raw rotated form pick insertion seams, and `reduced` is its free
    reduction, which splices to the same word because free reduction is
    confluent.  A rotation of a relator that is not cyclically reduced is
    itself not reduced.
    """
    key = _presentation_key(P)
    cached = _MOVE_CACHE.get(key)
    if cached is not None:
        return cached
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
    result = tuple(moves)
    _MOVE_CACHE[key] = result
    return result


def prove_trivial(
    P: Presentation, w: Word, budget: SearchBudget = DEFAULT_BUDGET
) -> ProofCertificate | None:
    """Search for a proof that w = e in the group presented by P.

    Best-first over relator insertions: at every state each rotated relator
    form may be inserted at either end of the word or at any seam where at
    least one letter cancels.  States are deduplicated by their reduced word;
    shorter words are expanded first.  Success yields a certificate; None
    means the budget ran out and says nothing about nontriviality.
    """
    start = w.letters
    if not start:
        return ProofCertificate(w, ())
    maxlen = budget.limit_for(w)
    if len(start) > maxlen:
        return None
    moves = _moves_for(P)
    # parent[word] = (previous word, position, (rid, rot, inverted))
    parent: dict[tuple[int, ...], tuple | None] = {start: None}
    heap: list[tuple[int, int, tuple[int, ...]]] = [(len(start), 0, start)]
    counter = 1
    nodes = 0
    max_nodes = budget.max_nodes

    def reconstruct(end: tuple[int, ...]) -> ProofCertificate:
        steps = []
        cur = end
        while parent[cur] is not None:
            cur, pos, (rid, rot, inverted) = parent[cur]  # type: ignore[misc]
            steps.append(ProofStep(pos, rid, rot, inverted))
        return ProofCertificate(w, tuple(reversed(steps)))

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


_TABLE_CACHE: dict[tuple, CosetTable] = {}


def quotient_table(P: Presentation, coset_cap: int = DEFAULT_COSET_CAP) -> CosetTable:
    """Coset table of the Coxeter quotient of P (cached per presentation)."""
    key = (_presentation_key(P), coset_cap)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = todd_coxeter(coxeter_quotient(P), coset_cap)
        _TABLE_CACHE[key] = table
    return table


@dataclass(frozen=True)
class RelatorCheck:
    relator: Relator
    transported: Word
    coxeter_trivial: bool | None
    abelianization_ok: bool
    certificate: ProofCertificate | None
    budget_limited: bool

    @property
    def failed(self) -> bool:
        return self.coxeter_trivial is False or not self.abelianization_ok

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


PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"
EXIT_CODES = {PASS: 0, FAIL: 2, INCONCLUSIVE: 3}


@dataclass(frozen=True)
class HomReport:
    """Per-relator verification record for one generator map."""

    map_label: str
    status: str
    checks: tuple[RelatorCheck, ...]
    coxeter_order: int | None

    def to_json(self) -> dict:
        return {
            "map": self.map_label,
            "status": self.status,
            "coxeter_order": self.coxeter_order,
            "relators": [c.to_json() for c in self.checks],
        }


def _check_one(
    target: Presentation,
    table: CosetTable,
    relator: Relator,
    image: Word,
    budget: SearchBudget,
) -> RelatorCheck:
    ab = abelianization_check(target, image)
    cox = None
    if table.status == "complete":
        cox = word_trivial_in_coxeter(table, image)
    cert = None
    if ab and cox is not False:
        cert = prove_trivial(target, image, budget)
    if cert is not None:
        if not replay_certificate(target, cert):
            raise VerifierError(
                f"certificate replay failed for {relator.provenance}"
            )
        if cox is False:
            raise VerifierError(
                f"certificate found for quotient-rejected word "
                f"{image.letters} ({relator.provenance})"
            )
        if not ab:
            raise VerifierError(
                f"certificate found for abelianization-rejected word "
                f"{image.letters} ({relator.provenance})"
            )
    return RelatorCheck(
        relator=relator,
        transported=image,
        coxeter_trivial=cox,
        abelianization_ok=ab,
        certificate=cert,
        budget_limited=cert is None and cox is not False and ab,
    )


def verify_homomorphism(
    gmap: GroupMap,
    budget: SearchBudget = DEFAULT_BUDGET,
    coset_cap: int = DEFAULT_COSET_CAP,
) -> HomReport:
    """Check that every source relator maps to a trivial word in the target.

    Each transported relator is run through the abelianization filter, the
    Coxeter quotient decision (when the table completes under the cap), and
    the certificate search.  FAIL records a definite counterexample;
    INCONCLUSIVE marks budget-limited searches and capped tables, never
    silence.
    """
    table = quotient_table(gmap.target, coset_cap)
    checks = [_check_one(gmap.target, table, r, transport(gmap, r.word), budget)
              for r in gmap.source.relators]
    if any(c.failed for c in checks):
        status = FAIL
    elif all(c.certificate is not None for c in checks):
        status = PASS
    else:
        status = INCONCLUSIVE
    return HomReport(gmap.label, status, tuple(checks), table.order)


@dataclass(frozen=True)
class InvarianceReport:
    """Result of checking one mutation-invariance instance."""

    diagram: Diagram
    vertex: int
    status: str
    phi_report: HomReport
    psi_report: HomReport
    roundtrips_exact: bool

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
) -> InvarianceReport:
    """Certify one instance of mutation invariance at vertex k.

    Verifies the comparison map and its reverse composite as homomorphisms
    and checks that both round trips are the identity on generators as free
    words, with no relations applied.
    """
    f = phi(G, k, presenter)
    g = psi(G, k, presenter)
    psi_phi = compose(g, f)
    phi_psi = compose(f, g)
    roundtrips = all(
        psi_phi.images[i].letters == (i + 1,)
        for i in range(psi_phi.source.n_generators)
    ) and all(
        phi_psi.images[i].letters == (i + 1,)
        for i in range(phi_psi.source.n_generators)
    )
    phi_report = verify_homomorphism(f, budget, coset_cap)
    psi_report = verify_homomorphism(g, budget, coset_cap)
    if FAIL in (phi_report.status, psi_report.status) or not roundtrips:
        status = FAIL
    elif phi_report.status == psi_report.status == PASS:
        status = PASS
    else:
        status = INCONCLUSIVE
    return InvarianceReport(G, k, status, phi_report, psi_report, roundtrips)


FUZZ_BUDGET = SearchBudget(max_nodes=600, len_slack=8)


def fuzz_soundness(
    P: Presentation,
    n_words: int,
    seed: int = 0,
    budget: SearchBudget = FUZZ_BUDGET,
    coset_cap: int = DEFAULT_COSET_CAP,
) -> dict:
    """Cross-check the prover against the Coxeter quotient on random words.

    Every certificate the small-budget search emits must replay, pass the
    abelianization filter, and be accepted by the quotient; a violation is a
    soundness bug and raises.  Returns summary counts; NotFound outcomes are
    recorded, never interpreted.
    """
    rng = random.Random(seed)
    table = quotient_table(P, coset_cap)
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
        trivial = None
        if table.status == "complete":
            trivial = word_trivial_in_coxeter(table, w)
            if trivial:
                stats["quotient_trivial"] += 1
            else:
                stats["quotient_rejected"] += 1
        cert = prove_trivial(P, w, budget)
        if cert is None:
            stats["not_found"] += 1
            continue
        stats["certified"] += 1
        if not replay_certificate(P, cert):
            raise VerifierError(f"fuzz certificate for {w.letters} failed replay")
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
    certificate is None when a link could not be found within budget.
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
