"""Run the artin-mutate CLI with a span around each layer's entry points.

Usage: python3 traced_cli.py SPANS_JSON CLI_ARG...

Behaves exactly like `python3 -m cluster_artin.cli CLI_ARG...` (same stdout,
same exit code) and additionally writes the spans it recorded to SPANS_JSON
as a list of [name, parent index or -1, start, end, info].  The package is
not modified: the wrappers replace module attributes at run time.

`from .x import y` gives every importing module its own binding of y, so a
wrapper replaces the name in each module that binds it.  Default arguments
that capture an entry point (the `presenter=artin_presentation` defaults of
mapping and verifier) are redirected as well.  Hot helpers that run
hundreds of thousands of times per run, such as `splice`, are not wrapped.
Spans nest through a stack, which is valid because the CLI runs serially
when ARTIN_MUTATE_THREADS is unset.
"""

from __future__ import annotations

import json
import sys
import types
from time import perf_counter

from cluster_artin import cli, diagram, mapping, presentation, verifier


def _presentation_info(P):
    return [P.label, len(P.relators)]


def _steps(cert):
    return None if cert is None else len(cert.steps)


ENTRY_POINTS = {
    diagram: {
        "mutation_class": len,
        "canonical_form": None,
        "canonical_diagram": None,
        "mutate_diagram": None,
        "chordless_cycles": None,
    },
    presentation: {
        "artin_presentation": _presentation_info,
        "coxeter_presentation": _presentation_info,
        "affine_artin_presentation": _presentation_info,
    },
    mapping: {
        "phi": None,
        "psi": None,
        "delta": None,
        "compose": None,
        "transport": len,
    },
    verifier: {
        "todd_coxeter": lambda table: len(table.rows),
        "quotient_table": None,
        "word_trivial_in_coxeter": None,
        "abelianization_check": None,
        "prove_trivial": _steps,
        "replay_certificate": None,
        "verify_homomorphism": None,
        "verify_mutation_invariance": None,
        "fuzz_soundness": None,
    },
}


class Recorder:
    """Spans in call order; `stack` holds the indices of the open ones."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]

    def wrap(self, name: str, fn, summarize=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, stack[-1], perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if summarize is not None:
                span[4] = summarize(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for module, names in ENTRY_POINTS.items():
            for name, summarize in names.items():
                fn = getattr(module, name)
                wrappers[fn] = self.wrap(name, fn, summarize)
        modules = (cli, *ENTRY_POINTS)
        for module in modules:
            for value in vars(module).values():
                if isinstance(value, types.FunctionType) and value.__defaults__:
                    value.__defaults__ = tuple(
                        wrappers.get(d, d) if isinstance(d, types.FunctionType)
                        else d
                        for d in value.__defaults__)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    try:
        return recorder.wrap("main", cli.main)(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
