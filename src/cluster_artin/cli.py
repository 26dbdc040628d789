"""Command-line surface: mutate, present, verify, enumerate, cycles, opposite.

Inputs are JSON files holding either a diagram {"n": ..., "edges": [[i, j, w],
...]} or an exchange matrix {"B": [[...], ...]}; matrices are converted on
ingestion.  All output is deterministic for a fixed invocation.

`verify` renders each instance as soon as it is decided and keeps it only in
an anonymous temporary file, so a class run's memory does not grow with its
output; the file is copied to stdout when the run ends, so stdout is the same
bytes as one rendering of the whole payload, and an error mid-run prints
nothing there.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys
import tempfile

from .diagram import (
    DEFAULT_CLASS_BUDGET,
    BudgetExceededError,
    Diagram,
    DiagramError,
    chordless_cycles,
    mutate_diagram,
    mutation_class,
    opposite,
)
from .mapping import GroupMap, MappingError, phi
from .presentation import (
    PresentationError,
    Word,
    affine_artin_presentation,
    artin_presentation,
    coxeter_presentation,
    load_t4_patterns,
)
from .verifier import (
    DEFAULT_BUDGET,
    DEFAULT_COSET_CAP,
    EXIT_CODES,
    PASS,
    SearchBudget,
    VerifierError,
    fuzz_soundness,
    group_order,
    verify_homomorphism,
    verify_mutation_invariance,
    worst,
)


class InputError(ValueError):
    """An input file is not readable as JSON text."""


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8: {exc}") from None
        except RecursionError:
            raise InputError(f"{path} nests JSON too deeply") from None


def _load_diagram(path: str) -> Diagram:
    return Diagram.from_json(_load_json(path))


def _nested_json(obj, depth: int) -> str:
    """`obj` as `_emit` renders it as a value `depth` levels deep."""
    return json.dumps(obj, indent=2, sort_keys=True).replace(
        "\n", "\n" + "  " * depth)


def _emit(obj, fmt: str, text_renderer=None) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    else:
        assert text_renderer is not None
        sys.stdout.write(text_renderer(obj))


def _check_presenter_flags(args) -> None:
    """Reject presenter flags that the chosen presentation would ignore."""
    affine = args.mode == "affine"
    if getattr(args, "kind", "artin") == "coxeter":
        flags = [flag for flag, given in (
            ("--mode affine", affine),
            ("--minimal-t3", args.minimal_t3),
            ("--patterns", args.patterns is not None)) if given]
        if flags:
            raise PresentationError(
                f"--kind coxeter takes no {', '.join(flags)}")
    elif args.patterns is not None and not affine:
        raise PresentationError("--patterns needs --mode affine")
    elif args.minimal_t3 and affine:
        raise PresentationError("--minimal-t3 does not apply to --mode affine")


def _presenter(args):
    if args.mode == "affine":
        patterns = ()
        if args.patterns is not None:
            patterns = load_t4_patterns(_load_json(args.patterns))
        return functools.partial(affine_artin_presentation, t4_patterns=patterns)
    return functools.partial(artin_presentation, minimal_t3=args.minimal_t3)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid" message
    return parse


_POSITIVE_INT, _NON_NEGATIVE_INT = _int_at_least(1), _int_at_least(0)


def _budget(args) -> SearchBudget:
    return SearchBudget(max_nodes=args.budget_nodes, len_slack=args.budget_len)


def cmd_mutate(args) -> int:
    G = _load_diagram(args.input)
    for k in args.vertices:
        G = mutate_diagram(G, k)
    _emit(G.to_json(), args.format, lambda _: G.to_dot())
    return 0


def cmd_opposite(args) -> int:
    G = opposite(_load_diagram(args.input))
    _emit(G.to_json(), args.format, lambda _: G.to_dot())
    return 0


def cmd_cycles(args) -> int:
    G = _load_diagram(args.input)
    cycles = chordless_cycles(G, affine=args.mode == "affine")
    payload = {
        "diagram": G.to_json(),
        "cycles": [
            {
                "vertices": list(c.vertices),
                "weights": list(c.weights),
                "oriented": c.oriented,
                "class": c.cycle_class.value,
            }
            for c in cycles
        ],
    }

    def render(obj) -> str:
        lines = []
        for c in obj["cycles"]:
            lines.append(
                f"{tuple(c['vertices'])} weights={tuple(c['weights'])} "
                f"class={c['class']}" + ("" if c["oriented"] else " (unoriented)")
            )
        return "\n".join(lines) + "\n" if lines else "no chordless cycles\n"

    _emit(payload, args.format, render)
    return 0


def cmd_present(args) -> int:
    _check_presenter_flags(args)
    G = _load_diagram(args.input)
    if args.kind == "coxeter":
        P = coxeter_presentation(G)
    else:
        P = _presenter(args)(G)
    if args.format == "text":
        sys.stdout.write(P.to_text())
    else:
        _emit(P.to_json(), "json")
    return 0


def cmd_enumerate(args) -> int:
    G = _load_diagram(args.input)
    members = mutation_class(G, cap=args.cap)
    # Every member's cycles and presentation come first, so that a diagram
    # outside the finite-type taxonomy fails before any order is searched.
    presented = []
    for D in members:
        counts: dict[str, int] = {}
        for c in chordless_cycles(D):
            counts[c.cycle_class.value] = counts.get(c.cycle_class.value, 0) + 1
        presented.append((D, counts, coxeter_presentation(D)))
    # Class members share most of their sub-presentations, and many are
    # relabellings of each other, so one memo decides each once up to
    # relabelling of its generators.
    memo: dict = {}
    census = []
    decided = set()
    for D, counts, P in presented:
        order = group_order(P, args.coset_cap, memo)
        if order is not None:
            decided.add(order)
        census.append({"diagram": D.to_json(), "cycles": counts,
                       "coxeter_order": order})
    # Members left undecided under the cap stay null; only two different
    # decided orders contradict each other.
    if len(decided) > 1:
        raise VerifierError(f"mutation class produced several orders: {decided}")
    payload = {
        "count": len(members),
        "coxeter_order": decided.pop() if decided else None,
        "members": census,
    }

    def render(obj) -> str:
        order = obj["coxeter_order"]
        lines = [f"class size {obj['count']}, coxeter order "
                 f"{'null' if order is None else order}"]
        for m in obj["members"]:
            lines.append(f"  {m['diagram']['edges']} cycles={m['cycles']}")
        return "\n".join(lines) + "\n"

    _emit(payload, args.format, render)
    return 0


def _verify_map_fixture(args, obj: dict) -> int:
    for key in ("diagram", "k"):
        if key not in obj:
            raise MappingError(f'map fixture needs "{key}"')
    G = Diagram.from_json(obj["diagram"])
    label = obj.get("label", "fixture-map")
    if not isinstance(label, str):
        raise MappingError(f'"label" must be a string, got {label!r}')
    presented = phi(G, obj["k"], _presenter(args))
    if not isinstance(obj["images"], list):
        raise MappingError('"images" must be a list of words')
    images = tuple(Word.from_json(w) for w in obj["images"])
    gmap = GroupMap(presented.source, presented.target, images, label)
    report = verify_homomorphism(gmap, _budget(args), args.coset_cap)
    payload = report.to_json()

    def render(obj) -> str:
        return f"{obj['map']}: {obj['status']}\n"

    _emit(payload, args.format, render)
    return EXIT_CODES[report.status]


def cmd_verify(args) -> int:
    _check_presenter_flags(args)
    obj = _load_json(args.input)
    if isinstance(obj, dict) and "images" in obj:
        flags = [flag for flag, given in (
            ("--class", args.mutation_class),
            ("--all-vertices", args.all_vertices),
            ("-k", args.vertex is not None),
            ("--fuzz", args.fuzz != 0)) if given]
        if flags:
            raise MappingError(
                f"a map fixture takes no {', '.join(flags)}: "
                "its diagram and vertex come from the file")
        return _verify_map_fixture(args, obj)
    if args.all_vertices and args.vertex is not None:
        raise DiagramError("pass -k VERTEX or --all-vertices, not both")
    if not args.all_vertices and args.vertex is None:
        raise DiagramError("pass -k VERTEX or --all-vertices")
    G = Diagram.from_json(obj)
    if args.fuzz and G.n == 0:
        raise DiagramError("--fuzz needs a diagram with at least one vertex")
    diagrams = mutation_class(G, cap=args.cap) if args.mutation_class else (G,)
    presenter = _presenter(args)
    budget = _budget(args)
    # Targets with the same relators share one table and move list per run.
    memo: dict = {}
    overall = PASS
    # Rendered instances wait in the spool, not on stdout: "fuzz" comes
    # first in the JSON but is computed last, and an error mid-run must
    # leave stdout empty.
    with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
        separator = ""
        for D in diagrams:
            vertices = range(1, D.n + 1) if args.all_vertices else [args.vertex]
            for k in vertices:
                report = verify_mutation_invariance(
                    D, k, budget, args.coset_cap, presenter, memo
                )
                overall = worst((overall, report.status))
                if args.format == "json":
                    spool.write(
                        separator + "    " + _nested_json(report.to_json(), 2))
                    separator = ",\n"
                else:
                    edges = report.diagram.to_json()["edges"]
                    spool.write(
                        f"{report.status} diagram={edges} k={report.vertex}\n")
        fuzz = None
        if args.fuzz:
            fuzz = fuzz_soundness(presenter(G), args.fuzz, seed=args.seed,
                                  coset_cap=args.coset_cap, memo=memo)
        spool.seek(0)
        # The bytes of _emit's rendering of {"fuzz"?, "results", "status"}.
        out = sys.stdout
        if args.format == "json":
            out.write("{\n")
            if fuzz is not None:
                out.write(f'  "fuzz": {_nested_json(fuzz, 1)},\n')
            if separator:
                out.write('  "results": [\n')
                shutil.copyfileobj(spool, out)
                out.write("\n  ],\n")
            else:
                out.write('  "results": [],\n')
            out.write(f'  "status": {json.dumps(overall)}\n}}\n')
        else:
            shutil.copyfileobj(spool, out)
            out.write(f"overall: {overall}\n")
            if fuzz is not None:
                out.write(f"fuzz: {fuzz}\n")
    return EXIT_CODES[overall]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artin-mutate",
        description="Diagram mutation, group presentations, and certified "
        "mutation-invariance checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices=("json", "text")):
        p.add_argument("input", help="diagram or matrix JSON file")
        p.add_argument("--format", choices=fmt_choices, default="json")

    def presenter_flags(p):
        p.add_argument("--mode", choices=("finite", "affine"), default="finite")
        p.add_argument("--minimal-t3", action="store_true",
                       help="one (T3) relator per cycle, leaning on the "
                       "redundancy lemmas")
        p.add_argument("--patterns",
                       help="(T4) pattern library JSON (affine mode)")

    p = sub.add_parser("mutate", help="apply a mutation sequence")
    common(p, ("json", "dot"))
    p.add_argument("-k", dest="vertices", type=int, action="append",
                   required=True, help="vertex to mutate at (repeatable)")

    p = sub.add_parser("opposite", help="reverse all arrows")
    common(p, ("json", "dot"))

    p = sub.add_parser("cycles", help="list chordless cycles")
    common(p)
    p.add_argument("--mode", choices=("finite", "affine"), default="finite")

    p = sub.add_parser("present", help="emit a group presentation")
    common(p)
    p.add_argument("--kind", choices=("artin", "coxeter"), default="artin")
    presenter_flags(p)

    p = sub.add_parser("verify", help="verify mutation invariance or a map fixture")
    common(p)
    p.add_argument("-k", dest="vertex", type=int, help="vertex to mutate at")
    p.add_argument("--all-vertices", action="store_true")
    p.add_argument("--class", dest="mutation_class", action="store_true",
                   help="verify every member of the mutation class")
    presenter_flags(p)
    p.add_argument("--budget-nodes", type=_POSITIVE_INT,
                   default=DEFAULT_BUDGET.max_nodes,
                   help="insertion attempts per word search")
    p.add_argument("--budget-len", type=_NON_NEGATIVE_INT,
                   default=DEFAULT_BUDGET.len_slack,
                   help="extra letters allowed beyond each start word")
    p.add_argument("--coset-cap", type=_POSITIVE_INT, default=DEFAULT_COSET_CAP)
    p.add_argument("--cap", type=_POSITIVE_INT, default=DEFAULT_CLASS_BUDGET,
                   help="mutation class budget for --class")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --fuzz word generation")
    p.add_argument("--fuzz", type=_NON_NEGATIVE_INT, default=0,
                   help="also run N random-word soundness checks")

    p = sub.add_parser("enumerate",
                       help="mutation class census with Coxeter orders")
    common(p)
    p.add_argument("--cap", type=_POSITIVE_INT, default=DEFAULT_CLASS_BUDGET)
    p.add_argument("--coset-cap", type=_POSITIVE_INT, default=DEFAULT_COSET_CAP)

    return parser


_HANDLERS = {
    "mutate": cmd_mutate,
    "opposite": cmd_opposite,
    "cycles": cmd_cycles,
    "present": cmd_present,
    "verify": cmd_verify,
    "enumerate": cmd_enumerate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (DiagramError, PresentationError, MappingError, BudgetExceededError,
            VerifierError, InputError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
