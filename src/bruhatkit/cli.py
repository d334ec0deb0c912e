"""Command-line surface: every computation, machine-readable first.

Subcommands: decompose, relpos, classes, phi, verify, order, poincare,
hecke, cell-count.  Output defaults to JSON (--format table for aligned
text).  The enumeration budget can also be set with BRUHATKIT_BUDGET.

Exit codes: 0 success / all checks passed; 1 a verification check failed;
2 usage or data errors (singular or malformed input, budget exceeded,
out-of-scope request).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import fflab
from .cells import (
    DEFAULT_CELL_BUDGET,
    BruhatFactorization,
    Flag,
    borel_order,
    bruhat_decompose,
    cell_order,
    enumerate_cell,
    relative_position,
)
from .errors import BudgetError, IntegrityError, SingularMatrixError
from .exact import matrix_from_json
from .hecke import hecke_mul, t_basis
from .phimap import phi_table
from .weyl import (
    DEFAULT_RANK_CAP,
    GroupSpec,
    WeylElement,
    chevalley_order,
    gl_order,
    poincare_polynomial,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise instead of printing the usage and exiting, so that
    main reports them as one error line with exit code 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bruhatkit",
        description="Bruhat cells over exact fields, Weyl group combinatorics, "
        "and finite-field verification experiments.",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json",
                        help="output rendering (default json)")
    # the flag is also accepted after the subcommand; SUPPRESS keeps a
    # root-level value from being clobbered by a subparser default
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "table"), default=argparse.SUPPRESS,
                        help="output rendering (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[shared],
                       help="Bruhat factorization g = b1 * w_rep * b2")
    p.add_argument("matrix", help="matrix JSON: a file path, an inline JSON object, or - for stdin")

    p = sub.add_parser("relpos", parents=[shared], help="relative position of two complete flags")
    p.add_argument("flag1", help="basis matrix JSON (path, inline, or -)")
    p.add_argument("flag2", help="basis matrix JSON (path or inline)")

    for name, help_text in (("classes", "conjugacy classes of a Weyl group"),
                            ("phi", "classes with their unipotent images")):
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.add_argument("family", choices=("A", "BC", "D"))
        p.add_argument("rank", type=int)
        p.add_argument("--rank-cap", type=int, default=DEFAULT_RANK_CAP)

    p = sub.add_parser("verify", parents=[shared], help="finite-field verification experiments")
    p.add_argument("kind", choices=("gl", "sl", "sp"))
    p.add_argument("n", type=int, help="matrix size (2n for sp)")
    p.add_argument("--q", type=int, action="append", required=True,
                   help="prime field size; repeat for cross-prime checks")
    p.add_argument("--theorem-a", dest="theorem_a", action=argparse.BooleanOptionalAction,
                   default=True, help="run the minimal-type check at each q")
    p.add_argument("--property-d", dest="property_d", action=argparse.BooleanOptionalAction,
                   default=None, help="run elliptic-class proxies (default: when >= 2 primes)")
    p.add_argument("--allow-bad-prime", action="store_true",
                   help="run Sp at q = 2 anyway; results reported but not asserted")
    p.add_argument("--budget", default=None,
                   help="whole-group enumeration budget (env BRUHATKIT_BUDGET)")
    p.add_argument("--cell-budget", default=str(DEFAULT_CELL_BUDGET),
                   help="bounds |B| of each prime's Borel grid, checked before any scan, "
                        "and each class property D grows by BFS")
    p.add_argument("--rank-cap", type=int, default=DEFAULT_RANK_CAP)
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized spot checks")
    p.add_argument("--out", type=Path, default=None, help="also write the report to a file")

    p = sub.add_parser("order", parents=[shared], help="Chevalley group order over GF(q)")
    p.add_argument("family", choices=("A", "BC", "D"))
    p.add_argument("rank", type=int)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--gl", action="store_true",
                   help="for family A: |GL_{rank+1}| instead of the Chevalley (SL) order")

    p = sub.add_parser("poincare", parents=[shared], help="length generating polynomial of W")
    p.add_argument("family", choices=("A", "BC", "D"))
    p.add_argument("rank", type=int)
    p.add_argument("--rank-cap", type=int, default=DEFAULT_RANK_CAP)

    p = sub.add_parser("hecke", parents=[shared], help="product of two T-basis elements")
    p.add_argument("word1", help="generator indices, e.g. '1 2 1' or '1,2,1'")
    p.add_argument("word2")
    p.add_argument("family", choices=("A", "BC", "D"))
    p.add_argument("rank", type=int)

    p = sub.add_parser("cell-count", parents=[shared], help="size of a Bruhat cell over GF(q)")
    p.add_argument("family", choices=("A", "BC"))
    p.add_argument("rank", type=int)
    p.add_argument("--w", help="window; use the = form for negatives, e.g. --w=-1,-2")
    p.add_argument("--word", help="alternatively, a generator word, e.g. '1 2'")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--enumerate", dest="do_enumerate", action="store_true",
                   help="also enumerate the cell and check the count")
    p.add_argument("--cell-budget", default=str(DEFAULT_CELL_BUDGET))

    return parser


def _positive_int(text: str, source: str) -> int:
    """A budget: an integer of at least 1, else a ValueError naming its source."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{source} must be a positive integer, got {text!r}")
    return value


def _enum_budget(args) -> int:
    """--budget, else BRUHATKIT_BUDGET when set and not empty, else the default."""
    if args.budget is not None:
        return _positive_int(args.budget, "--budget")
    env = os.environ.get("BRUHATKIT_BUDGET")
    if env:
        return _positive_int(env, "BRUHATKIT_BUDGET")
    return fflab.DEFAULT_ENUM_BUDGET


def main(argv=None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except json.JSONDecodeError as exc:
        print(f"error: matrix JSON parse error at line {exc.lineno} column {exc.colno} "
              f"(char {exc.pos}): {exc.msg}", file=sys.stderr)
        return 2
    except (_UsageError, SingularMatrixError, BudgetError, IntegrityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


def _dispatch(args) -> int:
    handler = {
        "decompose": _cmd_decompose,
        "relpos": _cmd_relpos,
        "classes": _cmd_classes,
        "phi": _cmd_classes,
        "verify": _cmd_verify,
        "order": _cmd_order,
        "poincare": _cmd_poincare,
        "hecke": _cmd_hecke,
        "cell-count": _cmd_cell_count,
    }[args.command]
    return handler(args)


# ---------------------------------------------------------------------------
# input parsing helpers


def _load_matrix(text: str):
    """The matrix an argument names: - for stdin, inline JSON or a file path."""
    try:
        if text == "-":
            obj = json.load(sys.stdin)
        elif text.lstrip().startswith(("{", "[")):
            obj = json.loads(text)
        elif os.path.isfile(text):
            with open(text) as fh:
                obj = json.load(fh)
        else:
            raise ValueError(f"matrix argument {text!r} is neither inline JSON nor an existing file")
    except RecursionError:
        raise ValueError("matrix JSON is nested too deeply") from None
    g = matrix_from_json(obj)
    if min(g.rows, g.cols) < 2:
        raise ValueError(f"the Bruhat commands need a matrix of size at least 2, got {g.rows}x{g.cols}")
    return g


def _parse_window(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.strip().strip("[]").replace(",", " ").split())


def _parse_word(text: str, rank: int) -> tuple[int, ...]:
    toks = text.strip().strip("[]").replace(",", " ").split()
    if len(toks) == 1 and len(toks[0]) > 1 and toks[0].isdigit() and rank <= 9:
        toks = list(toks[0])
    word = tuple(int(t) for t in toks) if toks else ()
    if any(i < 1 or i > rank for i in word):
        raise ValueError(f"word {text!r} uses generators outside 1..{rank}")
    return word


def _word_to_element(spec: GroupSpec, word: tuple[int, ...]) -> WeylElement:
    gens = spec.generators()
    w = spec.identity()
    for i in word:
        w = w * gens[i - 1]
    return w


# ---------------------------------------------------------------------------
# rendering


def _emit(payload: dict, fmt: str, table_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in table_lines():
            print(line)


def _check_printable(values) -> None:
    """Raise ValueError naming the first of the (name, number) pairs whose
    number str() refuses: it has more digits than sys.get_int_max_str_digits()."""
    for name, value in values:
        try:
            str(value)
        except ValueError:
            raise ValueError(f"cannot print {name}: it has more than {sys.get_int_max_str_digits()} "
                             f"digits, Python's limit; PYTHONINTMAXSTRDIGITS raises it") from None


def _aligned(rows: list[list[str]]) -> list[str]:
    if not rows:
        return []
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _fmt_label(label) -> str:
    if label is None:
        return "-"
    if isinstance(label, list) and label and isinstance(label[0], list):
        lam, mu = label
        return f"({','.join(map(str, lam))};{','.join(map(str, mu))})"
    return "(" + ",".join(map(str, label)) + ")"


# ---------------------------------------------------------------------------
# commands


def _factorization_json(fact: BruhatFactorization) -> dict:
    return {
        "w": list(fact.w.window),
        "reduced_word": list(fact.w.reduced_word()),
        "length": fact.w.length(),
        "w_rep": fact.w_rep.to_json(),
        "b1": fact.b1.to_json(),
        "b2": fact.b2.to_json(),
        "verified": True,
    }


def _cmd_decompose(args) -> int:
    g = _load_matrix(args.matrix)
    fact = bruhat_decompose(g)
    if fact.product() != g:  # re-verified before printing
        raise IntegrityError("reconstruction b1 * w_rep * b2 != input")
    _check_printable((f"{name}[{i}][{j}]", x) for name in ("w_rep", "b1", "b2")
                     for i, row in enumerate(getattr(fact, name).entries) for j, x in enumerate(row))
    payload = _factorization_json(fact)

    def table():
        yield f"w        = {list(fact.w.window)}"
        yield f"word     = {' '.join('s%d' % i for i in fact.w.reduced_word()) or 'e'}"
        yield f"length   = {fact.w.length()}"
        for name, mat in (("w_rep", fact.w_rep), ("b1", fact.b1), ("b2", fact.b2)):
            yield f"{name} ="
            yield from str(mat).splitlines()
        yield "verified: b1 * w_rep * b2 == g"

    _emit(payload, args.format, table)
    return 0


def _cmd_relpos(args) -> int:
    f1 = Flag(_load_matrix(args.flag1))
    f2 = Flag(_load_matrix(args.flag2))
    w = relative_position(f1, f2)
    payload = {"w": list(w.window), "reduced_word": list(w.reduced_word()), "length": w.length()}

    def table():
        yield f"relative position: {list(w.window)} (length {w.length()})"

    _emit(payload, args.format, table)
    return 0


def _cmd_classes(args) -> int:
    spec = GroupSpec(args.family, args.rank)
    with_phi = args.command == "phi" or spec.family != "D"
    rows = phi_table(spec, rank_cap=args.rank_cap, with_phi=with_phi)
    payload = {
        "family": spec.family,
        "rank": spec.rank,
        "order": spec.order(),
        "classes": [r.to_json() for r in rows],
    }

    def table():
        header = ["label", "size", "d_C", "elliptic"] + (["phi"] if with_phi else [])
        body = []
        for r in rows:
            j = r.to_json()
            line = [_fmt_label(j["class_label"]), str(j["size"]), str(j["d_C"]), str(j["elliptic"])]
            if with_phi:
                line.append(_fmt_label(j["phi"]))
            body.append(line)
        yield from _aligned([header] + body)

    _emit(payload, args.format, table)
    return 0


def _cmd_verify(args) -> int:
    kind = fflab.parse_kind(args.kind, args.n)
    budget = _enum_budget(args)
    cell_budget = _positive_int(args.cell_budget, "--cell-budget")
    qs = list(dict.fromkeys(args.q))
    run_d = args.property_d if args.property_d is not None else len(qs) >= 2
    if not (run_d or args.theorem_a):
        raise ValueError("nothing to verify: --no-theorem-a leaves no section to run "
                         "(property D runs at two or more primes unless --no-property-d)")
    report = {
        "group": {"kind": kind.family, "n": kind.n},
        "qs": qs,
        "theorem_a": [],
        "property_d": None,
    }
    ok = True
    # property D first: it refuses GL before theorem A has run at any prime;
    # the report's key order is fixed above, so its bytes do not change
    if run_d:
        section = fflab.verify_property_d(
            kind, qs, allow_bad_prime=args.allow_bad_prime,
            cell_budget=cell_budget, rank_cap=args.rank_cap,
        )
        report["property_d"] = section
        ok = ok and section["ok"]
    if args.theorem_a:
        for q in qs:
            section = fflab.verify_theorem_a(
                kind, q, allow_bad_prime=args.allow_bad_prime,
                budget=budget, cell_budget=cell_budget,
                rank_cap=args.rank_cap, seed=args.seed,
            )
            report["theorem_a"].append(section)
            ok = ok and section["ok"]
    report["ok"] = ok

    def table():
        yield f"group {kind} at q = {qs}: {'PASS' if ok else 'FAIL'}"
        for section in report["theorem_a"]:
            yield (f"  theorem-a q={section['q']}: all_match={section['all_match']} "
                   f"order={section['integrity']['order_check']['ok']} "
                   f"unipotents={section['integrity']['unipotent_count_check']['ok']}")
            for row in section["classes"]:
                yield (f"    {_fmt_label(row['class_label'])} d_C={row['d_C']} "
                       f"phi={_fmt_label(row['phi'])} match={row['match']}")
        if report["property_d"]:
            yield f"  property-d (proxies): all_match={report['property_d']['all_match']}"
            for row in report["property_d"]["classes"]:
                exps = ", ".join(f"{e:.3f}" for e in row["growth_exponents"])
                yield (f"    {_fmt_label(row['class_label'])} w={row['w']} d_C={row['d_C']} "
                       f"orbits_stable={row['orbit_count_stable']} exponents=[{exps}] "
                       f"match={row['match']}")

    _emit(report, args.format, table)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2))
    return 0 if ok else 1


def _cmd_order(args) -> int:
    spec = GroupSpec(args.family, args.rank)
    if args.gl:
        if spec.family != "A":
            raise ValueError("--gl applies to family A only")
        value = gl_order(spec.rank + 1, args.q)
        group = f"GL({spec.rank + 1})"
    else:
        value = chevalley_order(spec, args.q)
        group = f"Chevalley({spec})"
    _check_printable([("order", value)])
    payload = {"family": spec.family, "rank": spec.rank, "q": args.q,
               "gl": bool(args.gl), "group": group, "order": value}
    _emit(payload, args.format, lambda: [str(value)])
    return 0


def _cmd_poincare(args) -> int:
    spec = GroupSpec(args.family, args.rank)
    poly = poincare_polynomial(spec, rank_cap=args.rank_cap)
    payload = {"family": spec.family, "rank": spec.rank,
               "coefficients": list(poly.coeffs), "pretty": str(poly)}
    _emit(payload, args.format, lambda: [str(poly)])
    return 0


def _cmd_hecke(args) -> int:
    spec = GroupSpec(args.family, args.rank)
    w1 = _word_to_element(spec, _parse_word(args.word1, spec.rank))
    w2 = _word_to_element(spec, _parse_word(args.word2, spec.rank))
    product = hecke_mul(t_basis(w1), t_basis(w2))
    terms = []
    for w in sorted(product.terms, key=lambda w: (w.length(), w.window)):
        coeff = product.terms[w]
        terms.append({"window": list(w.window), "coefficients": list(coeff.coeffs),
                      "pretty": str(coeff)})
    payload = {"family": spec.family, "rank": spec.rank,
               "left": list(w1.window), "right": list(w2.window),
               "terms": terms, "pretty": str(product)}
    _emit(payload, args.format, lambda: [str(product)])
    return 0


def _cmd_cell_count(args) -> int:
    spec = GroupSpec(args.family, args.rank)
    cell_budget = _positive_int(args.cell_budget, "--cell-budget")
    if (args.w is None) == (args.word is None):
        raise ValueError("give exactly one of --w or --word")
    if args.w:
        w = spec.element(_parse_window(args.w))
    else:
        w = _word_to_element(spec, _parse_word(args.word, spec.rank))
    if not fflab.is_prime(args.q):
        raise ValueError(f"q must be prime for cell counts, got {args.q}")
    size = cell_order(w, args.q)
    payload = {
        "family": spec.family,
        "rank": spec.rank,
        "w": list(w.window),
        "length": w.length(),
        "q": args.q,
        "borel_order": borel_order(spec.family, spec.rank, args.q),
        "cell_order": size,
    }
    _check_printable((key, payload[key]) for key in ("borel_order", "cell_order"))
    if args.do_enumerate:
        count = sum(1 for _ in enumerate_cell(w, args.q, budget=cell_budget))
        payload["enumerated"] = count
        payload["enumeration_matches"] = count == size
        if count != size:
            raise IntegrityError(f"enumerated {count} elements, formula gives {size}")

    def table():
        yield f"|G_w(F_{args.q})| = q^{w.length()} * |B| = {size}"
        if args.do_enumerate:
            yield f"enumerated: {payload['enumerated']} (matches: {payload['enumeration_matches']})"

    _emit(payload, args.format, table)
    return 0


if __name__ == "__main__":
    entrypoint()
