"""Command-line front end.

Subcommands
-----------
  roots      --type E6 [-v]       dump a root system (rank at most 32)
  selftest   [--jobs N]           certification run: Jacobi, Killing, laws
  fixed      --chars SPEC...      fixed subalgebra of the given characters
  classify   --char SPEC          involution class and mu value
  realform   --gamma L1 L2 --theta L [--group G]
  theorem24                       one-shot classification, verified
  survey     --theta L            real forms g^sigma for all builtin sigma

Every subcommand takes --format json|plain (default plain); theorem24 also
takes --format markdown, the one subcommand with a markdown rendering.

selftest accepts --jobs N (N >= 1) for compatibility; it has no effect,
because the Jacobi sweep takes less time than starting worker processes.

Character grammar (one shell argument per character):

  chi [m=M] [e1,e3,e4,e5,e6,e2]
      exponents mod M on the simple roots IN CHAIN ORDER
      alpha1, alpha3, alpha4, alpha5, alpha6 and then alpha2 last.
  su6sp1 [m=M] d=[d1,d2,d3,d4,d5,d6] y=Y
      diagonal special-unitary exponents plus the sp(1) exponent.

A bracketed vector is one token even when it contains spaces.
Every integer (M, Y and each vector entry) is ASCII decimal with an
optional leading '-'.

M defaults to 4.
Element labels (x1, x2, x4, x5, y1, y3, y4, y5 and their products) resolve
inside the first builtin group containing them unless qualified as
"group:label" or pinned with --group.

Exit codes: 0 success/verified, 1 verification mismatch (a golden
reference or a real-form dimension check), 2 usage error ("usage error:"
on stderr), input the engine rejects (roots --type E7, a refused realform
pair, an unwritable --ntable-out; "error:" on stderr), or stdout closed or
not writable before the output was complete (no traceback then).  Only
main maps failures to exit codes: each command returns 0 or 1 or raises.
stdout carries pure data; diagnostics go to stderr, and a closed or
unwritable stderr loses them without changing the exit code.
"""
from __future__ import annotations

import argparse
import os
import re
import sys as _sys

from . import chevalley, pipeline
from .errors import EngineError, PreconditionError, UsageError, VerificationError
from .reductive import classify_involution, fixed_subalgebra, mu
from .rootsys import MAX_RANK, build_root_system
from .toral import TorusCharacter, embed_su6_sp1, from_chain_order

# A whitespace-free word, or one with a bracketed part that may hold spaces.
_SPEC_TOKEN = r"[^\s\[]*\[[^\]]*\]\S*|\S+"


def _spec_int(text: str) -> int:
    """An ASCII decimal integer with an optional leading '-'; int() alone
    would also take other scripts' digits, underscores and a '+'."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


def _parse_vector(token: str, expect: int) -> tuple[int, ...]:
    if not (token.startswith("[") and token.endswith("]")):
        raise UsageError(f"expected a bracketed vector, got {token!r}")
    body = token[1:-1].strip()
    parts = [p.strip() for p in body.split(",")] if body else []
    try:
        values = tuple(_spec_int(p) for p in parts)
    except ValueError:
        raise UsageError(f"non-integer entry in vector {token!r}")
    if len(values) != expect:
        raise UsageError(f"expected {expect} entries in {token!r}, got {len(values)}")
    return values


def parse_char_spec(spec: str) -> TorusCharacter:
    """Parse one character spec; see the module docstring for the grammar."""
    tokens = re.findall(_SPEC_TOKEN, spec)
    if not tokens:
        raise UsageError("empty character spec")
    kind, rest = tokens[0], tokens[1:]
    fields: dict[str, str] = {}
    positional: list[str] = []
    for tok in rest:
        if "=" in tok and not tok.startswith("["):
            key, _, val = tok.partition("=")
            if key in fields:
                raise UsageError(f"duplicate field {tok!r} in character spec")
            fields[key] = val
        else:
            positional.append(tok)

    def modulus() -> int:
        if "m" not in fields:
            return 4  # M defaults to 4
        try:
            m = _spec_int(fields["m"])
        except ValueError:
            raise UsageError(f"bad modulus token m={fields['m']!r}")
        if m < 1:
            raise UsageError(f"modulus must be >= 1, got m={m}")
        return m

    if kind == "chi":
        if len(positional) != 1 or set(fields) - {"m"}:
            raise UsageError(f"malformed chi spec {spec!r}")
        chain = _parse_vector(positional[0], 6)
        return TorusCharacter(modulus(), from_chain_order(chain))
    if kind == "su6sp1":
        if positional or set(fields) - {"m", "d", "y"}:
            raise UsageError(f"malformed su6sp1 spec {spec!r}")
        if "d" not in fields or "y" not in fields:
            raise UsageError(f"su6sp1 spec {spec!r} needs d=[...] and y=N")
        m = modulus()
        diag = _parse_vector(fields["d"], 6)
        try:
            y = _spec_int(fields["y"])
        except ValueError:
            raise UsageError(f"bad sp(1) token y={fields['y']!r}")
        return embed_su6_sp1(m, diag, y)
    raise UsageError(f"unknown character kind {kind!r} (want chi or su6sp1)")


def _char_view(char: TorusCharacter) -> dict:
    return {"modulus": char.modulus, "exps": list(char.exps), "order": char.order}


def _emit(doc, fmt: str, text_lines) -> None:
    if fmt == "json":
        import json  # only JSON output pays for loading it
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _quiet_stream(stream) -> None:
    """Point a stream whose writes fail at the null device, so the
    interpreter's final flush of what is left stays quiet too."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _diagnose(message: str) -> None:
    """Write a diagnostic to stderr; a closed or unwritable stderr loses it
    quietly.  A stderr closed at start is None, and print would then write
    to stdout."""
    if _sys.stderr is None:
        return
    try:
        print(message, file=_sys.stderr, flush=True)
    except OSError:
        _quiet_stream(_sys.stderr)


def _cmd_roots(args) -> int:
    token = args.type.upper()
    family, digits = token[:1], token[1:]
    if family not in ("A", "D", "E") or not (digits.isascii() and digits.isdigit()):
        raise UsageError(f"bad type token {args.type!r} (want e.g. E6, A5, D4)")
    rank = digits.lstrip("0") or "0"
    if len(rank) > len(str(MAX_RANK)):  # int() never sees thousands of digits
        raise PreconditionError(f"{family}{rank} is above the largest supported rank {MAX_RANK}")
    sys = build_root_system(family, int(rank))
    doc = {
        "type": sys.label,
        "rank": sys.rank,
        "root_count": len(sys.roots),
        "cartan": [list(row) for row in sys.cartan],
        "simple_roots": [list(r) for r in sys.simple_roots],
        "highest_root": list(sys.highest_root),
        "roots": [list(r) for r in sorted(sys.roots)],
    }
    lines = [f"type: {sys.label}", f"rank: {sys.rank}",
             f"roots: {len(sys.roots)}",
             f"highest root: {list(sys.highest_root)}"]
    if args.verbose:
        lines += [str(list(r)) for r in sorted(sys.roots)]
    _emit(doc, args.format, lines)
    return 0


def _cmd_selftest(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    sys = build_root_system("E", 6)
    results: list[tuple[str, bool, str]] = []

    sc = chevalley.build_chevalley_basis(sys)
    results.append(("root_system",
                    len(sys.roots) == 72 and sys.highest_root == (1, 2, 2, 3, 2, 1),
                    f"{len(sys.roots)} roots, highest {list(sys.highest_root)}"))

    results.append(("antisymmetry", chevalley.check_antisymmetry(sc),
                    f"{sum(map(len, sys.sums_from.values()))} ordered pairs"))

    jac = chevalley.check_jacobi(sc)
    results.append(("jacobi", jac.ok,
                    f"{jac.triples_checked} triples, first violation {jac.first_violation}"))

    kappa = chevalley.killing_form(sc, ("h", 0), ("h", 0))
    direct = sum(sys.simple_pairings(r)[0] ** 2 for r in sys.roots)
    results.append(("killing_cartan", kappa == 48 and direct == kappa,
                    f"adjoint trace {kappa}, root-sum {direct}"))

    alpha1 = sys.simple_roots[0]
    neg = tuple(-c for c in alpha1)
    xpair = chevalley.killing_form(sc, ("x", alpha1), ("x", neg))
    results.append(("killing_root_pair", xpair == 24, f"kappa(X,X-) = {xpair}"))

    import random
    rng = random.Random(0)
    chars = [TorusCharacter(12, tuple(rng.randrange(12) for _ in range(6)))
             for _ in range(20)]
    moduli = [chi.modulus for chi in chars]
    # value[r][c] is in [0, m_c), so value[s] == (value[a] + value[b]) % m_c
    # exactly when m_c divides value[a] + value[b] - value[s].
    value = {r: [chi.evaluate(r) for chi in chars] for r in sys.roots}
    hom_ok = all((p + q - t) % m == 0
                 for a, pairs in sys.sums_from.items() for b, s in pairs
                 for p, q, t, m in zip(value[a], value[b], value[s], moduli))
    results.append(("character_homomorphism", hom_ok, "20 sampled characters"))

    groups = pipeline.builtin_groups()
    census = tuple(len(pipeline.sigma2_elements(groups[n], sys))
                   for n in pipeline.GROUP_NAMES)
    results.append(("involution_census", census == (1, 3, 3, 5), str(census)))

    if args.ntable_out is not None:
        text = chevalley.export_n_table(sc)
        try:
            with open(args.ntable_out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError(f"cannot write the N table: {exc}") from exc
        _diagnose(f"wrote N table to {args.ntable_out}")

    ok = all(passed for _, passed, _ in results)
    doc = {
        "checks": [{"name": name, "passed": passed, "detail": detail}
                   for name, passed, detail in results],
        "passed": ok,
    }
    _emit(doc, args.format,
          [f"check {name}: {'PASS' if passed else 'FAIL'} ({detail})"
           for name, passed, detail in results])
    return 0 if ok else 1


def _cmd_fixed(args) -> int:
    sys = build_root_system("E", 6)
    chars = [parse_char_spec(s) for s in args.chars]
    fs = fixed_subalgebra(chars, sys)
    doc = {
        "chars": [_char_view(c) for c in chars],
        "fixed_root_count": len(fs.fixed_roots),
        "type": fs.render(),
        "dim": fs.dim,
    }
    _emit(doc, args.format,
          [f"type: {fs.render()}", f"dim: {fs.dim}",
           f"fixed roots: {len(fs.fixed_roots)}"])
    return 0


def _cmd_classify(args) -> int:
    sys = build_root_system("E", 6)
    char = parse_char_spec(args.char)
    cls = classify_involution(char, sys)
    doc = None
    if args.format == "json":  # only JSON shows mu and the fixed subalgebra
        fs = fixed_subalgebra([char], sys)
        doc = {
            "char": _char_view(char),
            "class": cls.label,
            "mu": mu(char, sys),
            "fixed_dim": fs.dim,
            "fixed_type": fs.render(),
        }
    _emit(doc, args.format, [cls.label])
    return 0


def _cmd_realform(args) -> int:
    sys = build_root_system("E", 6)
    groups = pipeline.builtin_groups()
    gname, g1 = pipeline.resolve_label(args.gamma[0], groups, args.group)
    _, g2 = pipeline.resolve_label(args.gamma[1], groups, gname)
    _, t = pipeline.resolve_label(args.theta, groups, gname)
    cand = pipeline.enumerate_candidates(groups[gname], sys).find(t, (g1, g2))
    doc = {
        "group": gname,
        "gamma": [g1, g2],
        "theta": t,
        "compact_dual": cand.compact_dual.render(),
        "real_form": cand.real_form.render(),
    }
    _emit(doc, args.format, [cand.real_form.render()])
    return 0


def _cmd_theorem24(args) -> int:
    sys = build_root_system("E", 6)
    report = pipeline.classify_all(sys)
    verified = report.verified
    doc, lines = None, ()
    if args.format == "json":
        doc = pipeline.report_to_dict(report)
    elif args.format == "markdown":
        lines = pipeline.report_to_markdown(report).splitlines()
    else:
        pairs = report.distinct_pairs
        lines = [*pairs, f"distinct pairs: {len(pairs)}", f"verified: {str(verified).lower()}"]
    _emit(doc, args.format, lines)
    if not verified:
        _diagnose(f"MISMATCH missing={list(report.missing)} "
                  f"unexpected={list(report.unexpected)}")
        return 1
    return 0


def _cmd_survey(args) -> int:
    sys = build_root_system("E", 6)
    result = pipeline.symmetric_pair_survey(args.theta, sys)
    doc = {
        "theta_group": result.theta_group,
        "theta": result.theta_label,
        "values": {g: {l: f.render("survey") for l, f in per.items()}
                   for g, per in result.values.items()},
    }
    lines = [f"theta: {result.theta_group}:{result.theta_label}"]
    for g, per in result.values.items():
        for l, f in per.items():
            lines.append(f"{g}:{l} -> {f.render('survey')}")
    _emit(doc, args.format, lines)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that its writes fail as the commands' do,
    where argparse drops the error: a closed stdout under -h reaches main,
    and a usage error goes to _diagnose (argparse would print the usage on
    stdout when stderr is None)."""

    def error(self, message):
        _diagnose(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(2)

    def _print_message(self, message, file=None):
        if file is not None:  # None: stdout was closed at start, which main reports
            file.write(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="k4holo",
        description="Exact classification engine for Klein four symmetric "
                    "pairs of holomorphic type on e6(-14).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "plain")):
        p.add_argument("--format", choices=formats, default="plain")

    p = sub.add_parser("roots", help="dump a root system")
    p.add_argument("--type", required=True, help="e.g. E6, A5, D4")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also list every root in the text output")
    common(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("selftest", help="structure-constant certification")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--ntable-out", default=None,
                   help="write the deterministic N-table dump here")
    common(p)
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("fixed", help="fixed subalgebra of characters")
    p.add_argument("--chars", nargs="*", default=[], metavar="SPEC")
    common(p)
    p.set_defaults(func=_cmd_fixed)

    p = sub.add_parser("classify", help="involution class of a character")
    p.add_argument("--char", required=True, metavar="SPEC")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("realform", help="real form of a Klein four fixed algebra")
    p.add_argument("--gamma", nargs=2, required=True, metavar="LABEL")
    p.add_argument("--theta", required=True, metavar="LABEL")
    p.add_argument("--group", default=None, choices=pipeline.GROUP_NAMES)
    common(p)
    p.set_defaults(func=_cmd_realform)

    p = sub.add_parser("theorem24", help="full classification run, verified")
    common(p, ("json", "markdown", "plain"))
    p.set_defaults(func=_cmd_theorem24)

    p = sub.add_parser("survey", help="symmetric-pair survey under one theta")
    p.add_argument("--theta", required=True, metavar="LABEL")
    common(p)
    p.set_defaults(func=_cmd_survey)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse has written its usage or help
            code = exc.code
        else:
            code = args.func(args)
        if _sys.stdout is None:  # closed at start: print wrote nothing
            return 2
        _sys.stdout.flush()
        return code
    except OSError:
        # A write to stdout failed: the reader closed it early, or it is not
        # writable.  The commands do no other I/O that can raise here.
        _quiet_stream(_sys.stdout)
        return 2
    except UsageError as exc:
        _diagnose(f"usage error: {exc}")
        return 2
    except VerificationError as exc:
        _diagnose(f"verification failure: {exc}")
        return 1
    except EngineError as exc:
        _diagnose(f"error: {exc}")
        return 2
