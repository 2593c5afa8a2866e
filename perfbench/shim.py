"""Run one k4holo CLI command with a span around every call into a traced layer.

    python3 perfbench/shim.py SPANS_OUT ARG...

behaves like ``python3 -m k4holo ARG...`` (same stdout, same exit code) and
also writes SPANS_OUT, a JSON document with the import time, every span as
``[name, start, end, parent_index, tag]`` and the exact counters.  The spans
are kept in memory and written once, when the command has returned.

Each traced function is rebound in every ``k4holo`` module namespace that
holds it, because ``pipeline`` and ``cli`` import names directly and a
module calls its own functions through its globals.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Functions timed as spans, by module.  cli.main is the root span of a process.
SPANNED = (
    ("rootsys", "build_root_system"),
    ("rootsys", "decompose_closed_subset"),
    ("reductive", "fixed_subalgebra"),
    ("reductive", "classify_involution"),
    ("realform", "identify_real_form"),
    ("realform", "center_of_fixed"),
    ("realform", "holomorphic_type_check"),
    ("chevalley", "build_chevalley_basis"),
    ("chevalley", "check_jacobi"),
    ("chevalley", "killing_form"),
    ("chevalley", "export_n_table"),
    ("toral", "generate_group"),
    ("pipeline", "builtin_groups"),
    ("pipeline", "enumerate_candidates"),
    ("pipeline", "classify_all"),
    ("pipeline", "symmetric_pair_survey"),
    ("pipeline", "report_to_dict"),
    ("pipeline", "report_to_markdown"),
    ("cli", "main"),
)
# Functions whose calls are counted without a span: they are called too
# often, or do too little, for a span to mean anything.
COUNTED = ("toral.TorusCharacter.evaluate", "cli.parse_char_spec")
# Functions taking a collection, which is frozen once before the call so
# that counting its inputs cannot consume a one-shot iterable.
FROZEN = {
    "rootsys.decompose_closed_subset": frozenset,
    "reductive.fixed_subalgebra": tuple,
}
# Functions whose distinct inputs are counted, with the input's key.
DISTINCT = {
    "rootsys.decompose_closed_subset": lambda args: args[0],
    "reductive.fixed_subalgebra": lambda args: frozenset(args[0]),
    "realform.center_of_fixed": lambda args: args[0],
}


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {name + ".calls": 0 for name in COUNTED}
        self.counts["rootsys.decompose_closed_subset.roots_in"] = 0
        self.counts["chevalley.check_jacobi.triples"] = 0
        self.inputs: dict[str, set] = {name: set() for name in DISTINCT}

    def spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        key, freeze = DISTINCT.get(name), FROZEN.get(name)

        def traced(*args, **kwargs):
            if freeze is not None:
                args = (freeze(args[0]),) + args[1:]
            if name == "rootsys.decompose_closed_subset":
                self.counts[name + ".roots_in"] += len(args[0])
            if key is not None:
                self.inputs[name].add(key(args))
            tag = None
            if name == "chevalley.check_jacobi":
                jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
                tag = "parallel" if jobs > 1 else "serial"
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tag]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag is not None:
                self.counts[name + ".triples"] += result.triples_checked
            return result

        return traced

    def counted(self, name: str, fn):
        counts, key = self.counts, name + ".calls"

        def traced(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        import k4holo
        from k4holo import toral
        namespaces = [m for n, m in sys.modules.items()
                      if n == "k4holo" or n.startswith("k4holo.")]
        for module, func in SPANNED:
            original = getattr(getattr(k4holo, module), func)
            self._rebind(namespaces, original, self.spanned(f"{module}.{func}", original))
        original = k4holo.cli.parse_char_spec
        self._rebind(namespaces, original, self.counted("cli.parse_char_spec", original))
        toral.TorusCharacter.evaluate = self.counted(
            "toral.TorusCharacter.evaluate", toral.TorusCharacter.evaluate)

    @staticmethod
    def _rebind(namespaces, original, replacement) -> None:
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def document(self, import_s: float) -> dict:
        counts = dict(self.counts)
        for name, seen in self.inputs.items():
            counts[name + ".distinct"] = len(seen)
        return {"import_s": import_s, "spans": self.spans, "counts": counts}


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import k4holo.cli
    import_s = time.perf_counter() - t0
    recorder = Recorder()
    recorder.install()
    try:
        code = k4holo.cli.main(args)
    finally:
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump(recorder.document(import_s), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
