"""The library constructors and mutation take exact ints, in the right
shape, or raise.

Each call in the first table coerced, returned PASS or raised a bare
TypeError before the constructors became the one place that checks their
integer entries; each call in the second raised a bare TypeError or
ValueError, or was accepted and failed later, before they checked the shape
of their input as well.  Now each raises DiagramError or PresentationError
naming the bad value, exactly as the JSON readers do.  Each search budget in
the third table is out of range or not an exact int, and SearchBudget
refuses it with a ValueError naming the value.
"""

import pytest

from cluster_artin import (
    Diagram,
    DiagramError,
    ExchangeMatrix,
    PresentationError,
    SearchBudget,
    T4Pattern,
    Word,
    mutate_diagram,
    mutate_matrix,
    verify_mutation_invariance,
)

from conftest import DYNKIN

A3 = DYNKIN["A3"]
A2_MATRIX = ExchangeMatrix(((0, 1), (-1, 0)))

# id -> (call, the bad value its error message must name)
NOT_EXACT_INTEGERS = {
    "verify-fractional-vertex": (
        lambda: verify_mutation_invariance(A3, 1.5), 1.5),
    "verify-boolean-vertex": (
        lambda: verify_mutation_invariance(A3, True), True),
    "mutate-diagram-fractional-vertex": (lambda: mutate_diagram(A3, 1.5), 1.5),
    "mutate-diagram-string-vertex": (lambda: mutate_diagram(A3, "2"), "2"),
    "mutate-matrix-fractional-vertex": (
        lambda: mutate_matrix(A2_MATRIX, 1.5), 1.5),
    "mutate-matrix-boolean-vertex": (
        lambda: mutate_matrix(A2_MATRIX, True), True),
    "matrix-fractional-entry": (
        lambda: ExchangeMatrix(((0, 1.5), (-1.5, 0))), 1.5),
    "matrix-boolean-entry": (
        lambda: ExchangeMatrix(((0, True), (-1, 0))), True),
    "matrix-string-entry": (lambda: ExchangeMatrix(((0, "1"), (-1, 0))), "1"),
    "diagram-fractional-weight": (lambda: Diagram(2, ((1, 2, 3.7),)), 3.7),
    "diagram-boolean-weight": (lambda: Diagram(2, ((1, 2, True),)), True),
    "diagram-string-vertex": (lambda: Diagram(2, (("1", 2, 1),)), "1"),
    "diagram-fractional-n": (lambda: Diagram(2.0, ((1, 2, 1),)), 2.0),
    "diagram-boolean-n": (lambda: Diagram(True, ()), True),
    "diagram-negative-n": (lambda: Diagram(-1, ()), -1),
    "word-fractional-letters": (lambda: Word((1.7, -2.2)), 1.7),
    "word-string-letter": (lambda: Word(("3",)), "3"),
    "word-boolean-letter": (lambda: Word((True,)), True),
    "word-cancelling-zeros": (lambda: Word((0, 0)), 0),
    "t4-boolean-row": (lambda: T4Pattern(True, A3), True),
    "t4-fractional-row": (lambda: T4Pattern(2.0, A3), 2.0),
    "t4-string-row": (lambda: T4Pattern("2", A3), "2"),
}


@pytest.mark.parametrize("call, bad", NOT_EXACT_INTEGERS.values(),
                         ids=NOT_EXACT_INTEGERS.keys())
def test_not_an_exact_integer_raises(call, bad):
    with pytest.raises((DiagramError, PresentationError)) as exc:
        call()
    assert repr(bad) in str(exc.value)


# id -> (call, the badly shaped value its error message must name)
MISSHAPEN = {
    "diagram-two-element-edge": (lambda: Diagram(2, ((1, 2),)), (1, 2)),
    "diagram-edges-not-a-sequence": (lambda: Diagram(2, 5), 5),
    "matrix-not-a-sequence": (lambda: ExchangeMatrix(5), 5),
    "matrix-rows-not-sequences": (lambda: ExchangeMatrix((1, 2)), (1, 2)),
    "word-not-a-sequence": (lambda: Word(5), 5),
    "t4-diagram-not-a-diagram": (lambda: T4Pattern(1, "x"), "x"),
}


@pytest.mark.parametrize("call, bad", MISSHAPEN.values(), ids=MISSHAPEN.keys())
def test_misshapen_input_raises(call, bad):
    with pytest.raises((DiagramError, PresentationError)) as exc:
        call()
    assert repr(bad) in str(exc.value)


# id -> (call, the out-of-range or inexact value its error message must name)
BAD_BUDGETS = {
    "budget-zero-nodes": (lambda: SearchBudget(max_nodes=0), 0),
    "budget-negative-nodes": (lambda: SearchBudget(max_nodes=-5), -5),
    "budget-fractional-nodes": (lambda: SearchBudget(max_nodes=1.5), 1.5),
    "budget-boolean-nodes": (lambda: SearchBudget(max_nodes=True), True),
    "budget-negative-slack": (lambda: SearchBudget(len_slack=-1), -1),
    "budget-fractional-slack": (lambda: SearchBudget(len_slack=0.5), 0.5),
    "budget-boolean-slack": (lambda: SearchBudget(len_slack=False), False),
    "budget-string-slack": (lambda: SearchBudget(len_slack="2"), "2"),
}


@pytest.mark.parametrize("call, bad", BAD_BUDGETS.values(),
                         ids=BAD_BUDGETS.keys())
def test_bad_search_budget_raises(call, bad):
    with pytest.raises(ValueError) as exc:
        call()
    assert repr(bad) in str(exc.value)
