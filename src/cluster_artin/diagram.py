"""Exchange matrices, weighted oriented diagrams, and diagram mutation.

A diagram is an edge-weighted oriented graph attached to a skew-symmetrizable
integer matrix B: there is an arrow i -> j exactly when B_ij > 0, carrying
weight |B_ij * B_ji|.  Mutation acts on matrices by the Fomin-Zelevinsky rule
and on diagrams by reversing arrows at the mutated vertex and updating the
third side of every path through it.  This module also provides chordless
cycle enumeration with the finite-type taxonomy, canonical forms (one exact
column-by-column search for the least adjacency encoding, at every size up to
the bound), and breadth-first closure of mutation classes.

Vertices are 1-based throughout, matching the usual figure labelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class DiagramError(ValueError):
    """Structurally invalid matrix or diagram input."""


class MutationError(DiagramError):
    """The mutation rule has no integral solution on this input.

    Cannot happen for diagrams arising from skew-symmetrizable matrices; it
    guards hand-written affine diagrams whose weight products are not perfect
    squares.
    """


class BudgetExceededError(RuntimeError):
    """A class enumeration hit its node budget before reaching an answer."""


DEFAULT_CLASS_BUDGET = 20_000
DEFAULT_CANONICAL_BOUND = 12
# Safety valve for the least-placement search on near-regular graphs and
# m-tables.
_CANONICAL_PARTIAL_CAP = 200_000


# ---------------------------------------------------------------------------
# Exchange matrices


def _find_symmetrizer(rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Positive integer diagonal d with d_i B_ij = -d_j B_ji, or raise."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            bij, bji = rows[i][j], rows[j][i]
            if (bij == 0) != (bji == 0):
                raise DiagramError(
                    f"not skew-symmetrizable: entries ({i + 1},{j + 1}) have "
                    "mismatched zero pattern"
                )
            if bij * bji > 0:
                raise DiagramError(
                    f"not skew-symmetrizable: entries ({i + 1},{j + 1}) have "
                    "equal signs"
                )
    d: list[Fraction | None] = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if rows[i][j] == 0:
                    continue
                ratio = Fraction(-rows[i][j], rows[j][i])
                want = d[i] * ratio
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    raise DiagramError("not skew-symmetrizable: inconsistent ratios")
    assert all(x is not None and x > 0 for x in d)
    scale = math.lcm(*(x.denominator for x in d)) if n else 1
    ints = [int(x * scale) for x in d]
    g = math.gcd(*ints) if ints else 1
    return tuple(x // g for x in ints)


@dataclass(frozen=True)
class ExchangeMatrix:
    """Skew-symmetrizable matrix B of ints (never bool, float or str), zero diagonal."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            rows = tuple(map(tuple, self.entries))
        except TypeError:
            raise DiagramError(
                f"matrix must be rows, got {self.entries!r}") from None
        bad = [x for row in rows for x in row if type(x) is not int]
        if bad:
            raise DiagramError(f"matrix entry must be an integer, got {bad[0]!r}")
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DiagramError("exchange matrix must be square")
        if any(rows[i][i] != 0 for i in range(n)):
            raise DiagramError("exchange matrix must have zero diagonal")
        object.__setattr__(self, "_symmetrizer", _find_symmetrizer(rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def symmetrizer(self) -> tuple[int, ...]:
        """A minimal positive integer diagonal witnessing skew-symmetrizability."""
        return self._symmetrizer  # type: ignore[attr-defined]

    def is_symmetrized_by(self, d: tuple[int, ...]) -> bool:
        B = self.entries
        return all(
            d[i] * B[i][j] == -d[j] * B[j][i]
            for i in range(self.n)
            for j in range(self.n)
        )

    def to_json(self) -> dict:
        return {"B": [list(row) for row in self.entries]}

    @staticmethod
    def from_json(obj: dict) -> "ExchangeMatrix":
        rows = obj.get("B") if isinstance(obj, dict) else None
        if not isinstance(rows, list):
            raise DiagramError('matrix JSON needs "B": a list of integer rows')
        return ExchangeMatrix(rows)


def is_two_finite(B: ExchangeMatrix) -> bool:
    """True when every product |B_ij * B_ji| is at most 3.

    This inspects the single matrix only, not its whole mutation class.
    """
    return all(
        abs(B.entries[i][j] * B.entries[j][i]) <= 3
        for i in range(B.n)
        for j in range(B.n)
    )


def _check_vertex(k, n: int) -> None:
    """Raise unless k is an int vertex in 1..n."""
    if type(k) is not int or not 1 <= k <= n:
        raise DiagramError(f"vertex {k!r} out of range 1..{n}")


def mutate_matrix(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation at vertex k (1-based).

    Entries in row or column k flip sign; every other entry becomes
    B_ij + (|B_ik| B_kj + B_ik |B_kj|) / 2.
    """
    _check_vertex(k, B.n)
    kk = k - 1
    old = B.entries
    new = []
    for i in range(B.n):
        row = []
        for j in range(B.n):
            if i == kk or j == kk:
                row.append(-old[i][j])
            else:
                bump = abs(old[i][kk]) * old[kk][j] + old[i][kk] * abs(old[kk][j])
                row.append(old[i][j] + bump // 2)
        new.append(tuple(row))
    return ExchangeMatrix(tuple(new))


# ---------------------------------------------------------------------------
# Diagrams


Edge = tuple[int, int, int]  # (source, target, weight)


@dataclass(frozen=True)
class Diagram:
    """Edge-weighted oriented graph with at most one edge per vertex pair;
    `n` and every edge entry are ints, never bool, float or str."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        n = self.n
        if type(n) is not int or n < 0:
            raise DiagramError(
                f"vertex count must be a non-negative integer, got {n!r}")
        out: dict[tuple[int, int], int] = {}
        try:  # a DiagramError is a ValueError, so it passes through first
            for i, j, w in self.edges:
                if not type(i) is type(j) is type(w) is int:
                    raise DiagramError(f"edge {(i, j, w)!r} must hold three integers")
                if not (1 <= i <= n and 1 <= j <= n):
                    raise DiagramError(f"edge ({i},{j}) out of range 1..{n}")
                if i == j:
                    raise DiagramError(f"self-loop at vertex {i}")
                if w < 1:
                    raise DiagramError(f"edge ({i},{j}) has non-positive weight {w}")
                if (i, j) in out or (j, i) in out:
                    raise DiagramError(
                        f"multiple edges between {min(i, j)} and {max(i, j)}")
                out[i, j] = w
        except DiagramError:
            raise
        except (TypeError, ValueError):
            raise DiagramError(
                f"edges must be triples, got {self.edges!r}") from None
        object.__setattr__(self, "edges", tuple(
            (i, j, w) for (i, j), w in sorted(out.items())))
        object.__setattr__(self, "_out", out)

    def arrow(self, i: int, j: int) -> int:
        """Weight of the arrow i -> j, or 0 when there is none."""
        return self._out.get((i, j), 0)  # type: ignore[attr-defined]

    def edge_between(self, i: int, j: int) -> Edge | None:
        w = self.arrow(i, j)
        if w:
            return (i, j, w)
        w = self.arrow(j, i)
        if w:
            return (j, i, w)
        return None

    def weight_between(self, i: int, j: int) -> int:
        e = self.edge_between(i, j)
        return e[2] if e else 0

    def undirected_neighbors(self, v: int) -> tuple[int, ...]:
        out = [j for i, j, _ in self.edges if i == v]
        out += [i for i, j, _ in self.edges if j == v]
        return tuple(sorted(out))

    def max_weight(self) -> int:
        return max((w for _, _, w in self.edges), default=0)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for u in self.undirected_neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n

    def relabel(self, perm: dict[int, int]) -> "Diagram":
        """Apply a vertex relabelling {old: new}."""
        return Diagram(self.n, tuple((perm[i], perm[j], w) for i, j, w in self.edges))

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @staticmethod
    def from_json(obj: dict) -> "Diagram":
        """Accept either diagram JSON {"n", "edges"} or matrix JSON {"B"}.

        Only the JSON containers are checked here; the constructors reject
        a bad shape or value, so malformed input raises DiagramError and
        nothing is coerced.
        """
        if not isinstance(obj, dict):
            raise DiagramError(
                f"diagram JSON must be an object, not {type(obj).__name__}")
        if "B" in obj:
            return diagram_from_matrix(ExchangeMatrix.from_json(obj))
        if "n" not in obj or "edges" not in obj:
            raise DiagramError('diagram JSON needs "n" and "edges" (or "B")')
        edges = obj["edges"]
        if not isinstance(edges, list):
            raise DiagramError(
                '"edges" must be a list of [source, target, weight] triples')
        return Diagram(obj["n"], edges)

    def to_dot(self) -> str:
        lines = ["digraph diagram {"]
        for v in range(1, self.n + 1):
            lines.append(f"  {v};")
        for i, j, w in self.edges:
            lines.append(f'  {i} -> {j} [label="{w}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def diagram_from_matrix(B: ExchangeMatrix) -> Diagram:
    """Diagram of B: arrow i -> j iff B_ij > 0, with weight |B_ij * B_ji|."""
    edges = []
    for i in range(B.n):
        for j in range(B.n):
            if B.entries[i][j] > 0:
                edges.append((i + 1, j + 1, abs(B.entries[i][j] * B.entries[j][i])))
    return Diagram(B.n, tuple(edges))


# ---------------------------------------------------------------------------
# Diagram mutation


def _cprime(a: int, b: int, c: int, closes_cycle: bool) -> tuple[int, int]:
    """Weight update for a path i -a-> k -b-> j with third-side weight c.

    `closes_cycle` records whether the existing third edge runs j -> i (so the
    three arrows form an oriented cycle); c == 0 means no third edge.  Returns
    (c', direction) with direction +1 for a new arrow i -> j, -1 for j -> i,
    and 0 for no arrow.  Solves (sqrt(ab) -+ sqrt(c))^2 = ab + c -+ 2*sqrt(abc)
    over the integers, so sqrt(abc) must be integral.
    """
    abc = a * b * c
    root = math.isqrt(abc)
    if root * root != abc:
        raise MutationError(
            f"mutation weight update needs integral sqrt({a}*{b}*{c})"
        )
    if closes_cycle or c == 0:
        cp = a * b + c - 2 * root
        if a * b > c:
            return cp, 1
        if a * b < c:
            return cp, -1
        return 0, 0
    return a * b + c + 2 * root, 1


def mutate_diagram(G: Diagram, k: int) -> Diagram:
    """Diagram mutation at vertex k (1-based).

    Arrows incident to k are reversed; for every path i -> k -> j the weight
    on the third side of the triangle is replaced according to the sign rule,
    with weight 0 meaning edge removal.  Agrees with
    diagram_from_matrix(mutate_matrix(B, k)) whenever G came from a matrix.
    """
    _check_vertex(k, G.n)
    pair_edges: dict[frozenset[int], Edge] = {
        frozenset((i, j)): (i, j, w) for i, j, w in G.edges
    }
    ins = [(i, w) for i, j, w in G.edges if j == k]
    outs = [(j, w) for i, j, w in G.edges if i == k]
    for i, a in ins:
        for j, b in outs:
            key = frozenset((i, j))
            cur = pair_edges.get(key)
            if cur is None:
                c, closes = 0, True
            elif cur[0] == j:
                c, closes = cur[2], True
            else:
                c, closes = cur[2], False
            cp, direction = _cprime(a, b, c, closes)
            if direction == 0:
                pair_edges.pop(key, None)
            elif direction > 0:
                pair_edges[key] = (i, j, cp)
            else:
                pair_edges[key] = (j, i, cp)
    final = []
    for i, j, w in pair_edges.values():
        if i == k or j == k:
            final.append((j, i, w))
        else:
            final.append((i, j, w))
    return Diagram(G.n, tuple(final))


def opposite(G: Diagram) -> Diagram:
    """Reverse every arrow, keeping weights."""
    return Diagram(G.n, tuple((j, i, w) for i, j, w in G.edges))


# ---------------------------------------------------------------------------
# Chordless cycles


class CycleClass(Enum):
    ALL_WEIGHT_ONE = "AllWeightOne"
    SQUARE_TWO_TWO = "SquareTwoTwo"
    TRIANGLE_TWO_TWO_ONE = "TriangleTwoTwoOne"
    AFFINE_OTHER = "AffineOther"


@dataclass(frozen=True)
class ChordlessCycle:
    """A chordless cycle, listed along its orientation when it has one.

    `vertices` starts at the smallest label of the cycle; when the cycle is
    cyclically oriented, consecutive vertices follow the arrows and
    weights[a] is the weight of the arrow vertices[a] -> vertices[a+1 mod d].
    """

    vertices: tuple[int, ...]
    weights: tuple[int, ...]
    oriented: bool
    cycle_class: CycleClass

    def __len__(self) -> int:
        return len(self.vertices)


def _classify(weights: tuple[int, ...], oriented: bool) -> CycleClass:
    d = len(weights)
    if not oriented:
        return CycleClass.AFFINE_OTHER
    if all(w == 1 for w in weights):
        return CycleClass.ALL_WEIGHT_ONE
    if d == 4 and sorted(weights) == [1, 1, 2, 2] and weights[0] == weights[2]:
        return CycleClass.SQUARE_TWO_TWO
    if d == 3 and sorted(weights) == [1, 2, 2]:
        return CycleClass.TRIANGLE_TWO_TWO_ONE
    return CycleClass.AFFINE_OTHER


def _unoriented_chordless_cycles(G: Diagram) -> list[tuple[int, ...]]:
    """All chordless cycles of the underlying graph, each listed once.

    Each cycle starts at its smallest vertex; the traversal direction is fixed
    by requiring the second vertex to be smaller than the last.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(1, G.n + 1)}
    for i, j, _ in G.edges:
        adj[i].add(j)
        adj[j].add(i)
    found: list[tuple[int, ...]] = []

    def extend(path: list[int]) -> None:
        u, last = path[0], path[-1]
        for x in sorted(adj[last]):
            if x <= u or x in path:
                continue
            inner = path[1:-1]
            if any(x in adj[p] for p in inner):
                continue  # chord against an interior vertex
            if x in adj[u]:
                if len(path) >= 2 and path[1] < x:
                    found.append(tuple(path) + (x,))
                continue  # extending past x would leave the chord x-u
            path.append(x)
            extend(path)
            path.pop()

    for u in range(1, G.n + 1):
        for v in sorted(adj[u]):
            if v > u:
                extend([u, v])
    return found


def chordless_cycles(G: Diagram, affine: bool = False) -> tuple[ChordlessCycle, ...]:
    """Chordless cycles of G with their finite-type classification.

    In finite mode a cycle that is not cyclically oriented raises
    DiagramError; in affine mode it is returned with class AffineOther.
    """
    cycles = []
    for verts in _unoriented_chordless_cycles(G):
        d = len(verts)
        forward = all(G.arrow(verts[a], verts[(a + 1) % d]) for a in range(d))
        backward = all(G.arrow(verts[(a + 1) % d], verts[a]) for a in range(d))
        if forward or backward:
            ordered = verts if forward else (verts[0],) + tuple(reversed(verts[1:]))
            weights = tuple(
                G.arrow(ordered[a], ordered[(a + 1) % d]) for a in range(d)
            )
            cls = _classify(weights, oriented=True)
            cycles.append(ChordlessCycle(ordered, weights, True, cls))
        else:
            if not affine:
                raise DiagramError(
                    f"chordless cycle {verts} is not cyclically oriented"
                )
            weights = tuple(
                G.weight_between(verts[a], verts[(a + 1) % d]) for a in range(d)
            )
            cycles.append(
                ChordlessCycle(verts, weights, False, CycleClass.AFFINE_OTHER)
            )
    cycles.sort(key=lambda c: c.vertices)
    return tuple(cycles)


# ---------------------------------------------------------------------------
# Canonical forms and mutation classes


def _least_placements(into) -> tuple[list[tuple[int, ...]] | None, tuple]:
    """Every placement of 1..n minimizing the column-wise encoding of `into`.

    `into[v][u]` is the entry in row u, column v of a matrix on 1..n (row
    and column 0 unused).  The encoding lists column q of the placed matrix
    (entries above the diagonal) for q = 1, 2, ..., so its lexicographic
    minimum is found column by column.  Exact search: placements are
    extended one position at a time, keeping every partial placement whose
    encoding prefix is minimal.  Returns the minimal placements, in
    lexicographic order, and the minimal encoding; the placements are None
    once more than _CANONICAL_PARTIAL_CAP partials tie, as on inputs with
    huge automorphism groups.
    """
    verts = range(1, len(into))
    partials: list[tuple[int, ...]] = [()]
    encoding: list = []
    for _ in verts:
        best_col: tuple | None = None
        extended: list[tuple[int, ...]] = []
        for placement in partials:
            used = set(placement)
            for v in verts:
                if v in used:
                    continue
                col = tuple(map(into[v].__getitem__, placement))
                if best_col is None or col < best_col:
                    best_col = col
                    extended = [placement + (v,)]
                elif col == best_col:
                    extended.append(placement + (v,))
        assert best_col is not None
        encoding.extend(best_col)
        partials = extended
        if len(partials) > _CANONICAL_PARTIAL_CAP:
            return None, tuple(encoding)
    return partials, tuple(encoding)


def _canonical_placement(G: Diagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lexicographically least vertex placement minimizing the
    column-wise encoding of the signed adjacency matrix, and that encoding.
    Degenerate inputs with huge automorphism groups are cut off by a hard
    cap."""
    # into[v][u]: the entry in row u, column v of the signed adjacency
    # matrix, the weight of an arrow u -> v, negated for an arrow v -> u.
    into = [[0] * (G.n + 1) for _ in range(G.n + 1)]
    for i, j, w in G.edges:
        into[j][i] = w
        into[i][j] = -w
    placements, encoding = _least_placements(into)
    if placements is None:
        raise DiagramError("canonical search blew up: diagram too symmetric")
    return placements[0], encoding


def _canonical_key(G: Diagram) -> tuple[bytes, tuple[int, ...]]:
    """Canonical byte encoding of G and the placement that attains it."""
    if G.n > DEFAULT_CANONICAL_BOUND:
        raise DiagramError(
            f"canonical form limited to {DEFAULT_CANONICAL_BOUND} vertices")
    placement, enc = _canonical_placement(G)
    return (f"{G.n}|" + ",".join(map(str, enc))).encode("ascii"), placement


def _placed(G: Diagram, placement: tuple[int, ...]) -> Diagram:
    """G relabelled so that placement[q] becomes vertex q + 1."""
    return G.relabel({old: pos + 1 for pos, old in enumerate(placement)})


def canonical_form(G: Diagram) -> bytes:
    """Relabelling-invariant byte encoding, minimal over all permutations."""
    return _canonical_key(G)[0]


def canonical_diagram(G: Diagram) -> Diagram:
    """The canonically relabelled copy of G."""
    return _placed(G, _canonical_key(G)[1])


def _class_bfs(G: Diagram, cap: int, stop_on_heavy: bool) -> tuple[bool, dict[bytes, Diagram]]:
    """BFS closure of the mutation class up to canonical form.

    Returns (hit_heavy_edge, members).  With stop_on_heavy the search aborts
    as soon as any member has an edge weight above 3.  Mutation is an
    involution, so a member is not mutated again at the vertex it was
    reached by, which would only give back its parent.  Each other mutation
    costs one canonical search, and only a new member is relabelled.
    """
    if not G.is_connected():
        raise DiagramError("mutation class enumeration requires a connected diagram")
    key, placement = _canonical_key(G)
    start = _placed(G, placement)
    members: dict[bytes, Diagram] = {key: start}
    if stop_on_heavy and start.max_weight() > 3:
        return True, members
    # Each member with the vertex it was reached by (0 for the start).
    frontier = [(start, 0)]
    while frontier:
        next_frontier = []
        for member, back in frontier:
            for k in range(1, member.n + 1):
                if k == back:
                    continue
                D = mutate_diagram(member, k)
                key, placement = _canonical_key(D)
                if key in members:
                    continue
                canon = _placed(D, placement)
                members[key] = canon
                next_frontier.append((canon, placement.index(k) + 1))
                if stop_on_heavy and D.max_weight() > 3:
                    return True, members
                if len(members) > cap:
                    raise BudgetExceededError(
                        f"mutation class exceeded budget of {cap} diagrams"
                    )
        frontier = next_frontier
    return False, members


def mutation_class(G: Diagram, cap: int = DEFAULT_CLASS_BUDGET) -> tuple[Diagram, ...]:
    """All canonical forms mutation-equivalent to G, in deterministic order."""
    _, members = _class_bfs(G, cap, stop_on_heavy=False)
    return tuple(members[key] for key in sorted(members))


def is_finite_type(G: Diagram, cap: int = DEFAULT_CLASS_BUDGET) -> bool:
    """Whether the mutation class of G closes with all edge weights <= 3.

    False as soon as a heavier edge appears; True when the class closes under
    the budget; BudgetExceededError when the budget runs out first, which is
    distinct from a definitive answer.  A diagram whose weights cannot arise
    from any skew-symmetrizable matrix is reported as not finite type.
    """
    try:
        heavy, _ = _class_bfs(G, cap, stop_on_heavy=True)
    except MutationError:
        return False
    return not heavy
