import json
import random
from math import lcm
from pathlib import Path

import pytest

from cluster_artin import Diagram, ExchangeMatrix

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load_fixture(name: str) -> dict:
    with open(FIXTURES / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


# Dynkin diagrams, one orientation each.
DYNKIN = {
    "A2": Diagram(2, ((1, 2, 1),)),
    "A3": Diagram(3, ((1, 2, 1), (2, 3, 1))),
    "A4": Diagram(4, ((1, 2, 1), (2, 3, 1), (3, 4, 1))),
    "B2": Diagram(2, ((1, 2, 2),)),
    "B3": Diagram(3, ((1, 2, 1), (2, 3, 2))),
    "D4": Diagram(4, ((1, 4, 1), (2, 4, 1), (3, 4, 1))),
    "G2": Diagram(2, ((1, 2, 3),)),
}

def path_diagram(n: int) -> Diagram:
    """The Dynkin diagram A_n, arrows i -> i+1."""
    return Diagram(n, tuple((i, i + 1, 1) for i in range(1, n)))


# Worked examples: the all-weight-1 square, the (2,2,1) triangle, and the
# square with two opposite weight-2 edges.
SQUARE = Diagram(4, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)))
TRIANGLE_221 = Diagram(3, ((1, 2, 2), (2, 3, 1), (3, 1, 2)))
SQUARE_1212 = Diagram(4, ((1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 1, 2)))
PENTAGON = Diagram(5, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 1, 1)))
AFFINE_C2 = Diagram(3, ((1, 2, 2), (2, 3, 2)))

# Independent closed-form orders of the associated reflection groups.
WEYL_ORDERS = {
    "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "D4": 192, "G2": 12,
}

# Frozen outputs of the exhaustive class BFS oracle.
CLASS_SIZES = {"A2": 1, "A3": 4, "A4": 6, "B2": 1, "B3": 5, "D4": 6, "G2": 1}


def random_two_finite_matrix(rng: random.Random, n: int) -> ExchangeMatrix:
    """Seeded 2-finite skew-symmetrizable matrix with a known symmetrizer.

    Picks a positive diagonal d and, per vertex pair, a common value
    x = d_i B_ij = -d_j B_ji small enough that |B_ij B_ji| <= 3.
    """
    while True:
        d = [rng.choice((1, 2, 3)) for _ in range(n)]
        rows = [[0] * n for _ in range(n)]
        nonzero = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    continue
                step = lcm(d[i], d[j])
                options = [x for x in (step, 2 * step, 3 * step)
                           if x * x <= 3 * d[i] * d[j]]
                if not options:
                    continue
                x = rng.choice(options) * rng.choice((1, -1))
                rows[i][j] = x // d[i]
                rows[j][i] = -x // d[j]
                nonzero += 1
        if nonzero:
            return ExchangeMatrix(tuple(tuple(r) for r in rows))


@pytest.fixture
def rng():
    return random.Random(20240811)
