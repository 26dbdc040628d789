"""The explicit homomorphisms between diagram Artin groups.

Three maps are provided.  For a mutation G' = mu_k(G), `phi(G, k)` sends the
group of G' into the group of G by conjugating at k along arrows into k.
`psi(G, k)` runs the other way, conjugating by the inverse at k along the
same arrows, so on generators the round trips with phi reduce to the
identity as free words, with no relations needed.  It equals the paper's
composite delta' . phi_op . delta around the opposite diagram, where
`delta(G)` inverts every generator into the group of the opposite diagram.
Both comparison maps are one rule, `comparison_map`, read in the two
directions over the same two presentations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .diagram import Diagram, mutate_diagram, opposite
from .presentation import Presentation, Word, artin_presentation


class MappingError(ValueError):
    """Word and map alphabets do not line up."""


Presenter = Callable[[Diagram], Presentation]


@dataclass(frozen=True)
class GroupMap:
    """A generator-image assignment between two presentations."""

    source: Presentation
    target: Presentation
    images: tuple[Word, ...]
    label: str

    def __post_init__(self):
        if len(self.images) != self.source.n_generators:
            raise MappingError("one image word per source generator required")
        for w in self.images:
            if w.max_generator() > self.target.n_generators:
                raise MappingError(f"image {w.letters} leaves the target alphabet")

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "images": [w.to_json() for w in self.images],
        }


def transport(gmap: GroupMap, w: Word) -> Word:
    """Homomorphic extension of the generator images, freely reduced."""
    if w.max_generator() > gmap.source.n_generators:
        raise MappingError(
            f"word {w.letters} is not over the source alphabet of {gmap.label}"
        )
    letters: list[int] = []
    for x in w.letters:
        image = gmap.images[abs(x) - 1]
        if x < 0:
            image = image.inverse()
        letters.extend(image.letters)
    return Word(tuple(letters))


def compose(outer: GroupMap, inner: GroupMap) -> GroupMap:
    """outer . inner, with precomposed images."""
    if inner.target.label != outer.source.label:
        raise MappingError(
            f"cannot compose {outer.label} after {inner.label}: alphabets differ"
        )
    images = tuple(transport(outer, w) for w in inner.images)
    return GroupMap(inner.source, outer.target, images,
                    f"{outer.label}.{inner.label}")


def comparison_map(G: Diagram, k: int, c: int, source: Presentation,
                   target: Presentation) -> GroupMap:
    """The map s_i -> c s_i c^-1 when G has an arrow i -> k, and s_i -> s_i
    otherwise (including i = k): `phi` for c = k, `psi` for c = -k."""
    images = tuple(Word((c, i, -c)) if G.arrow(i, k) else Word((i,))
                   for i in range(1, G.n + 1))
    return GroupMap(source, target, images, f"{'Phi' if c > 0 else 'Psi'}({k})")


def phi(G: Diagram, k: int, presenter: Presenter = artin_presentation) -> GroupMap:
    """The mutation comparison map from the group of mu_k(G) into the group of G.

    A generator r_i maps to s_k s_i s_k^-1 exactly when G has an arrow
    i -> k, and to s_i otherwise (including i = k).
    """
    return comparison_map(G, k, k, presenter(mutate_diagram(G, k)),
                          presenter(G))


def delta(G: Diagram, presenter: Presenter = artin_presentation) -> GroupMap:
    """Generator inversion into the opposite diagram's group."""
    source = presenter(G)
    target = presenter(opposite(G))
    images = tuple(Word((-i,)) for i in range(1, G.n + 1))
    return GroupMap(source, target, images, "Delta")


def psi(G: Diagram, k: int, presenter: Presenter = artin_presentation) -> GroupMap:
    """The reverse comparison map from the group of G into the group of mu_k(G).

    A generator s_i maps to r_k^-1 r_i r_k exactly when G has an arrow
    i -> k, and to r_i otherwise; this is delta' . phi_op . delta written
    out on generators.  Both presentations are phi's, with the roles swapped.
    """
    f = phi(G, k, presenter)
    return comparison_map(G, k, -k, f.target, f.source)
