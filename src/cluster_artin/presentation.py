"""Free-group words and the Coxeter / Artin presentations of a diagram.

Generators are numbered by diagram vertices (1-based).  A letter is a signed
integer: +i stands for the generator of vertex i, -i for its inverse.  Words
are stored freely reduced; all operations re-reduce eagerly.

The Coxeter presentation carries the involution relators (R1), the braid
relators (R2) and the cycle relators (R3a)/(R3b).  The Artin presentation
drops the involutions and instead imposes (T2) braid relations for every
vertex pair plus (T3) commutator relations t(i_a, i_{a+1}) = e on qualifying
chordless cycle rotations.  Affine mode generalizes (T3) through the cycle
exponent t(l), computed exactly in integers, and adds user-supplied (T4)
pattern relators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import permutations

from .diagram import (
    ChordlessCycle,
    CycleClass,
    Diagram,
    DiagramError,
    chordless_cycles,
)


class PresentationError(ValueError):
    """Invalid presentation input."""


class NotFiniteTypeError(PresentationError):
    """The diagram is outside the finite-type taxonomy required here."""


class UnsupportedCycleError(PresentationError):
    """An affine cycle exponent t(l) fell outside {0, 1, 2, 3}."""


INFINITE_M = math.inf

_FAMILY_ORDER = {
    "R1": 0, "R2": 1, "R3a": 2, "R3b": 3,
    "T2": 4, "T3": 5, "AffineT3": 6, "T4": 7,
}


# ---------------------------------------------------------------------------
# Words


def free_reduce(letters) -> tuple[int, ...]:
    """Freely reduce a letter sequence (remove adjacent x, -x pairs)."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def splice(word: tuple[int, ...], pos: int, ins: tuple[int, ...]) -> tuple[int, ...]:
    """Insert `ins` into the reduced `word` at `pos` and reduce the result.

    Both inputs must already be reduced; cancellation can then only cascade
    from the two seams.  The left seam cancels first, then the right seam;
    only when `ins` is absorbed whole do the two outer parts of `word` meet.
    """
    lo, hi, i, j = pos, pos, 0, len(ins)
    while lo and i < j and word[lo - 1] == -ins[i]:
        lo -= 1
        i += 1
    n = len(word)
    while hi < n and i < j and ins[j - 1] == -word[hi]:
        hi += 1
        j -= 1
    if i == j:
        while lo and hi < n and word[lo - 1] == -word[hi]:
            lo -= 1
            hi += 1
        return word[:lo] + word[hi:]
    return word[:lo] + ins[i:j] + word[hi:]


@dataclass(frozen=True)
class Word:
    """A freely reduced word in signed generator letters, each a non-zero int
    (checked before reduction, so a bad letter cannot cancel away)."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        try:
            letters = tuple(self.letters)
        except TypeError:
            raise PresentationError(
                f"word must be letters, got {self.letters!r}") from None
        for x in letters:
            if type(x) is not int or not x:
                raise PresentationError(f"letter {x!r} is not a generator")
        object.__setattr__(self, "letters", free_reduce(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def conjugate(self, by: "Word") -> "Word":
        """by * self * by^-1."""
        return by * self * by.inverse()

    def max_generator(self) -> int:
        return max((abs(x) for x in self.letters), default=0)

    def exponent_sums(self, n: int) -> tuple[int, ...]:
        sums = [0] * n
        for x in self.letters:
            sums[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(sums)

    def to_json(self) -> list[list[int]]:
        return [[abs(x), 1 if x > 0 else -1] for x in self.letters]

    @staticmethod
    def from_json(obj) -> "Word":
        """A word from a list of [generator, 1 or -1] pairs; anything else raises."""
        shape = "a word must be a list of [generator >= 1, 1 or -1] pairs"
        if not isinstance(obj, list):
            raise PresentationError(f"{shape}, got {obj!r}")
        letters = []
        for x in obj:
            # type() rather than isinstance(): JSON booleans are not letters.
            if not (isinstance(x, list) and len(x) == 2
                    and type(x[0]) is int and type(x[1]) is int
                    and x[0] >= 1 and x[1] in (1, -1)):
                raise PresentationError(f"{shape}, got {x!r}")
            letters.append(x[0] * x[1])
        return Word(tuple(letters))

    def to_text(self) -> str:
        """Space-separated tokens, uppercase marking inverses: "g1 G2"."""
        return " ".join(f"g{x}" if x > 0 else f"G{-x}" for x in self.letters)

    @staticmethod
    def from_text(text: str) -> "Word":
        """The inverse of to_text: tokens g<digits> and G<digits>, ASCII only."""
        letters = []
        for tok in text.split():
            digits = tok[1:]
            if tok[0] not in "gG" or not (digits.isascii() and digits.isdigit()):
                raise PresentationError(f"bad word token {tok!r}")
            letters.append(int(digits) if tok[0] == "g" else -int(digits))
        return Word(tuple(letters))


def cyclic_reduce(letters: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (core, prefix) with letters = prefix * core * prefix^-1."""
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    return letters[lo:hi], letters[:lo]


def least_cyclic_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of the cyclic core of `letters`.  Only a rotation
    that starts with the core's least letter can be least."""
    core, _ = cyclic_reduce(letters)
    if not core:
        return ()
    low = min(core)
    return min(core[i:] + core[:i] for i, x in enumerate(core) if x == low)


# ---------------------------------------------------------------------------
# Relators and presentations


@dataclass(frozen=True)
class Relator:
    word: Word
    family: str
    provenance: str

    def __post_init__(self):
        if not self.word:
            raise PresentationError(f"empty relator from {self.provenance}")

    def sort_key(self):
        """(family rank, provenance).  Within a family the builders give
        relators with different words different provenances, so the words
        never need comparing."""
        return (_FAMILY_ORDER.get(self.family, 99), self.provenance)

    def to_json(self) -> dict:
        return {
            "word": self.word.to_json(),
            "family": self.family,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class Presentation:
    """Generator count, relators, and the braid-length table m_ij.

    `label` identifies the generating alphabet so that words are never mixed
    across diagrams by accident; `mode` is "coxeter" or "artin".
    """

    n_generators: int
    relators: tuple[Relator, ...]
    mode: str
    m_table: tuple[tuple[float, ...], ...]
    label: str

    def with_relators(self, relators, suffix: str) -> "Presentation":
        """A variant presentation over the same alphabet (for replay suites)."""
        return replace(self, relators=tuple(relators),
                       label=f"{self.label}#{suffix}")

    def to_json(self) -> dict:
        return {
            "generators": self.n_generators,
            "mode": self.mode,
            "relators": [r.to_json() for r in self.relators],
        }

    def to_text(self) -> str:
        return "\n".join(r.word.to_text() for r in self.relators) + "\n"


def _diagram_tag(G: Diagram) -> str:
    return ";".join(f"{i}>{j}:{w}" for i, j, w in G.edges)


def m_value(G: Diagram, i: int, j: int, affine: bool = False) -> float:
    """Braid length for a vertex pair: 2, 3, 4, 6 by weight, or infinity."""
    if i == j:
        raise PresentationError("m is only defined for distinct vertices")
    w = G.weight_between(i, j)
    if w == 0:
        return 2
    if w == 1:
        return 3
    if w == 2:
        return 4
    if w == 3:
        return 6
    if affine:
        return INFINITE_M
    raise NotFiniteTypeError(f"edge weight {w} between {i} and {j} exceeds 3")


def alternating_word(x: Word, y: Word, m: int) -> Word:
    """<x, y>^m: the alternating product x y x y ... of m factors, that is
    (x y)^(m // 2) x^(m % 2), reduced once (free reduction is confluent)."""
    return Word((x.letters + y.letters) * (m // 2) + x.letters * (m % 2))


def braid_relator_words(x: Word, y: Word, m: int, family: str, provenance: str) -> Relator:
    """Relator of the braid relation <x,y>^m = <y,x>^m."""
    word = alternating_word(x, y, m) * alternating_word(y, x, m).inverse()
    return Relator(word, family, provenance)


def braid_relator(i: int, j: int, m: int) -> Relator:
    """(T2) relator of <s_i, s_j>^m = <s_j, s_i>^m; m must be finite."""
    if type(m) is not int or m not in (2, 3, 4, 6):
        raise PresentationError(f"no braid relator for m = {m}")
    return braid_relator_words(Word((i,)), Word((j,)), m, "T2", f"({i},{j})")


def p_word(cycle: ChordlessCycle, a: int) -> Word:
    """The cycle word p(i_a, i_{a+1}).

    For the tuple (i_a, ..., i_{a+d-1}) this is
    s^-1_{a+1} s^-1_{a+2} ... s^-1_{a+d-2} s_{a+d-1} s_{a+d-2} ... s_{a+1},
    degenerating to s^-1_{a+1} s_{a+2} s_{a+1} for triangles.  No cancellation
    occurs, so the reduced length is always 2(d-2)+1.
    """
    d = len(cycle.vertices)
    if d < 3:
        raise PresentationError("cycles have at least 3 vertices")
    at = lambda t: cycle.vertices[(a + t) % d]
    rising = [-at(t) for t in range(1, d - 1)]
    falling = [at(t) for t in range(d - 2, 0, -1)]
    return Word(tuple(rising) + (at(d - 1),) + tuple(falling))


def t_relator(cycle: ChordlessCycle, a: int) -> Relator:
    """(T3) relator t(i_a, i_{a+1}) = [s_{i_a}, p(i_a, i_{a+1})]."""
    d = len(cycle.vertices)
    s = Word((cycle.vertices[a % d],))
    p = p_word(cycle, a)
    word = s * p * s.inverse() * p.inverse()
    prov = (f"t({cycle.vertices[a % d]},{cycle.vertices[(a + 1) % d]});"
            f"cycle={cycle.vertices}")
    return Relator(word, "T3", prov)


def t3_qualifies(cycle: ChordlessCycle, a: int) -> bool:
    """Whether rotation a of an oriented cycle receives a (T3) relator.

    Either every edge has weight 1, or every edge has weight 1 or 2 and the
    closing edge i_{a+d-1} -> i_a has weight 2.  Only the closing edge is
    required to be heavy, consistent with the two relators of the weighted
    triangle example.
    """
    if not cycle.oriented:
        return False
    d = len(cycle.weights)
    if all(w == 1 for w in cycle.weights):
        return True
    return (all(w in (1, 2) for w in cycle.weights)
            and cycle.weights[(a - 1) % d] == 2)


def r_word(cycle: ChordlessCycle, a: int) -> Word:
    """The Coxeter cycle word r(i_a, i_{a+1}) = s_a s_{a+1} ... s_{a+d-1} s_{a+d-2} ... s_{a+1}."""
    d = len(cycle.vertices)
    at = lambda t: cycle.vertices[(a + t) % d]
    rising = [at(t) for t in range(d)]
    falling = [at(t) for t in range(d - 2, 0, -1)]
    return Word(tuple(rising + falling))


def _m_table(G: Diagram, affine: bool) -> tuple[tuple[float, ...], ...]:
    """m_ij for every vertex pair, one m_value call per unordered pair."""
    table = [[0] * G.n for _ in range(G.n)]
    for i in range(G.n):
        for j in range(i + 1, G.n):
            table[i][j] = table[j][i] = m_value(G, i + 1, j + 1, affine)
    return tuple(map(tuple, table))


def _finite_cycles(G: Diagram) -> tuple[ChordlessCycle, ...]:
    cycles = chordless_cycles(G, affine=False)
    for c in cycles:
        if c.cycle_class is CycleClass.AFFINE_OTHER:
            raise NotFiniteTypeError(
                f"cycle {c.vertices} with weights {c.weights} is outside the "
                "finite-type taxonomy"
            )
    return cycles


def _involution_relators(n: int) -> list[Relator]:
    """(R1): s_i^2 for every generator."""
    return [Relator(Word((i, i)), "R1", f"({i})") for i in range(1, n + 1)]


def _braid_relators(m_table) -> list[Relator]:
    """(T2) for every vertex pair; pairs with infinite m (affine) get none."""
    n = len(m_table)
    return [braid_relator(i, j, m_table[i - 1][j - 1])
            for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if m_table[i - 1][j - 1] != INFINITE_M]


def _presentation(G: Diagram, tag: str, mode: str, relators,
                  m_table) -> Presentation:
    """The presentation of G on its sorted relators, labelled tag[n|edges]."""
    return Presentation(
        n_generators=G.n,
        relators=tuple(sorted(relators, key=Relator.sort_key)),
        mode=mode,
        m_table=m_table,
        label=f"{tag}[{G.n}|{_diagram_tag(G)}]",
    )


def artin_presentation(G: Diagram, minimal_t3: bool = False) -> Presentation:
    """The Artin presentation: (T2) for every pair, (T3) on qualifying rotations.

    By default every qualifying rotation of every chordless cycle contributes
    its relator; with minimal_t3 only the first qualifying rotation per cycle
    is kept, leaning on the redundancy lemmas (validated by the prover, not
    assumed).
    """
    cycles = _finite_cycles(G)
    m_table = _m_table(G, False)
    relators = _braid_relators(m_table)
    for cycle in cycles:
        for a in range(len(cycle.vertices)):
            if t3_qualifies(cycle, a):
                relators.append(t_relator(cycle, a))
                if minimal_t3:
                    break
    tag = "artin-min" if minimal_t3 else "artin"
    return _presentation(G, tag, "artin", relators, m_table)


def coxeter_presentation(G: Diagram) -> Presentation:
    """The Coxeter presentation: (R1), (R2), and the cycle relators (R3).

    (R3a) gives r(i_a, i_{a+1})^2 for every rotation of an all-weight-1 cycle;
    (R3b) gives r(i_a, i_{a+1})^(4 - w) where w is the weight of the edge
    entering i_a, for cycles containing weight-2 edges.
    """
    cycles = _finite_cycles(G)
    m_table = _m_table(G, False)
    relators = _involution_relators(G.n)
    for i in range(1, G.n + 1):
        for j in range(i + 1, G.n + 1):
            word = Word((i, j) * m_table[i - 1][j - 1])
            relators.append(Relator(word, "R2", f"({i},{j})"))
    for cycle in cycles:
        d = len(cycle.vertices)
        all_one = all(w == 1 for w in cycle.weights)
        for a in range(d):
            k = 2 if all_one else 4 - cycle.weights[(a - 1) % d]
            word = Word(r_word(cycle, a).letters * k)
            prov = (f"r({cycle.vertices[a]},{cycle.vertices[(a + 1) % d]})^{k};"
                    f"cycle={cycle.vertices}")
            relators.append(Relator(word, "R3a" if all_one else "R3b", prov))
    return _presentation(G, "coxeter", "coxeter", relators, m_table)


def coxeter_quotient(P: Presentation) -> Presentation:
    """Add the involution relators s_i^2 to an Artin presentation."""
    if P.mode == "coxeter":
        return P
    extra = tuple(_involution_relators(P.n_generators))
    return replace(P, relators=extra + P.relators, mode="coxeter",
                   label=f"quotient[{P.label}]")


# ---------------------------------------------------------------------------
# Affine mode


_M_OF_T = {0: 2, 1: 3, 2: 4, 3: 6}


def affine_t_value(cycle: ChordlessCycle, l: int) -> int:
    """The exponent datum t(l) = (prod sqrt(w_j) - sqrt(w_closing))^2.

    The product runs over the d-1 weights starting at position l; the closing
    weight c is the remaining one.  With P the product of those d-1 weights,
    t(l) = P + c - 2*sqrt(Pc), an integer exactly when Pc is a perfect square;
    raises UnsupportedCycleError unless it lies in {0, 1, 2, 3}.
    """
    d = len(cycle.weights)
    P = math.prod(cycle.weights[(l + t) % d] for t in range(d - 1))
    c = cycle.weights[(l + d - 1) % d]
    root = math.isqrt(P * c)
    value = P + c - 2 * root if root * root == P * c else None
    if value not in _M_OF_T:
        raise UnsupportedCycleError(
            f"t({l}) = {value} on cycle {cycle.vertices} is unsupported"
        )
    return value


def affine_m_value(cycle: ChordlessCycle, l: int) -> int:
    """m(l): 2, 3, 4, 6 as t(l) is 0, 1, 2, 3."""
    return _M_OF_T[affine_t_value(cycle, l)]


@dataclass(frozen=True)
class T4Pattern:
    """A user-supplied (T4) subdiagram shape keyed to a relator template row.

    The shapes of the published table are not recoverable from the text, so
    they are an input; the relator words per row ship with the library.
    """

    row: int
    diagram: Diagram

    def __post_init__(self):
        if type(self.row) is not int:  # type(): booleans are not rows
            raise PresentationError(
                f'(T4) pattern "row" must be an integer, got {self.row!r}')
        if not isinstance(self.diagram, Diagram):
            raise PresentationError("(T4) pattern diagram must be a "
                                    f"Diagram, got {self.diagram!r}")

    def to_json(self) -> dict:
        return {"row": self.row, "diagram": self.diagram.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "T4Pattern":
        """A pattern from {"row": integer, "diagram": diagram JSON}; else raise."""
        if not isinstance(obj, dict) or "row" not in obj or "diagram" not in obj:
            raise PresentationError(
                f'a (T4) pattern needs "row" and "diagram", got {obj!r}')
        try:
            diagram = Diagram.from_json(obj["diagram"])
        except DiagramError as exc:
            raise PresentationError(f"(T4) pattern diagram: {exc}") from exc
        return T4Pattern(obj["row"], diagram)


def load_t4_patterns(obj: dict) -> tuple[T4Pattern, ...]:
    """The patterns of a {"patterns": [pattern, ...]} library; anything else raises."""
    patterns = obj.get("patterns") if isinstance(obj, dict) else None
    if not isinstance(patterns, list):
        raise PresentationError(
            '(T4) pattern JSON must be an object with a "patterns" list')
    return tuple(T4Pattern.from_json(p) for p in patterns)


def t4_template_words(row: int, nv: int) -> tuple[tuple[int, ...], ...]:
    """Relator letter tuples for a (T4) table row, in template numbering 1..nv."""
    def inv(seq):
        return tuple(-x for x in reversed(seq))

    def commutator(xs, ys):
        return free_reduce(tuple(xs) + tuple(ys) + inv(xs) + inv(ys))

    if row == 1:
        if nv < 4:
            raise PresentationError("row 1 template needs 4 vertices")
        return (commutator((2, 1, -2), (-4, 3, 4)),)
    if row == 2:
        n = nv - 1
        if n < 3:
            raise PresentationError("row 2 template needs at least 4 vertices")
        x = tuple(-t for t in range(3, n + 1)) + (1, n + 1, -1) + tuple(
            range(n, 2, -1))
        return (commutator((2,), x),)
    if row == 3:
        if nv < 4:
            raise PresentationError("row 3 template needs 4 vertices")
        return (
            commutator((2,), (-3, 4, 1, -4, 3)),
            commutator((2,), (1, -4, 3, 4, -1)),
        )
    if row == 4:
        n = nv - 1
        if n < 3:
            raise PresentationError("row 4 template needs at least 4 vertices")
        y = tuple(-t for t in range(2, n)) + (n + 1, n, -(n + 1)) + tuple(
            range(n - 1, 1, -1))
        return (commutator((1,), y),)
    if row == 5:
        if nv < 3:
            raise PresentationError("row 5 template needs 3 vertices")
        return (
            commutator((2,), (-1, 2, 3, -2, 1)),
            commutator((1,), (2, 3, 2, -3, -2)),
        )
    raise PresentationError(f"unknown (T4) template row {row}")


def match_induced(G: Diagram, shape: Diagram) -> tuple[tuple[int, ...], ...]:
    """Injective maps template-vertex -> G-vertex inducing exactly the shape."""
    hits = []
    for image in permutations(range(1, G.n + 1), shape.n):
        ok = True
        for u in range(1, shape.n + 1):
            for v in range(u + 1, shape.n + 1):
                a, b = image[u - 1], image[v - 1]
                if (G.arrow(a, b) != shape.arrow(u, v)
                        or G.arrow(b, a) != shape.arrow(v, u)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            hits.append(image)
    return tuple(hits)


def affine_artin_presentation(
    G: Diagram, t4_patterns: tuple[T4Pattern, ...] = ()
) -> Presentation:
    """Affine Artin presentation: (T2) with infinite pairs skipped, braid-type
    (T3) relations of order m(l) on every oriented chordless cycle, and (T4)
    relators wherever a supplied pattern matches an induced subdiagram.
    """
    m_table = _m_table(G, True)
    relators = _braid_relators(m_table)
    for cycle in chordless_cycles(G, affine=True):
        if not cycle.oriented:
            continue
        d = len(cycle.vertices)
        for l in range(d):
            m = affine_m_value(cycle, l)
            s = Word((cycle.vertices[l],))
            p = p_word(cycle, l)
            prov = (f"<s,p>({cycle.vertices[l]},{cycle.vertices[(l + 1) % d]})"
                    f"^{m};cycle={cycle.vertices}")
            relators.append(braid_relator_words(s, p, m, "AffineT3", prov))
    for pattern in t4_patterns:
        templates = t4_template_words(pattern.row, pattern.diagram.n)
        for image in match_induced(G, pattern.diagram):
            for idx, template in enumerate(templates):
                mapped = tuple(
                    (1 if x > 0 else -1) * image[abs(x) - 1] for x in template
                )
                relators.append(Relator(
                    Word(mapped), "T4",
                    f"row{pattern.row}.{idx}@{image}",
                ))
    return _presentation(G, "affine-artin", "artin", relators, m_table)
