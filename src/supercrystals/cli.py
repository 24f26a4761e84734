"""Command-line interface.

Exit codes: 0 success, 1 property-check failure, 2 usage error.

``main`` builds its argument parser once per process, on its first call, and
reuses it for every later call; ``build_parser`` returns a fresh parser for a
caller that wants to extend one.  Each subcommand's parser, down to the
``pbw`` subcommands, names its handler and the formats it prints, default
first, with ``set_defaults(handler=..., formats=...)``; the ``pbw`` group
declares one format for its five subcommands.  ``main`` alone checks the
format (unset is the default, undeclared exits 2) and alone writes the text
a handler returns with its exit code, to ``--out`` or to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from . import crystal, graph, linkage, pbw, sweeps
from .weights import ContextError, build_context, parse_ints, parse_weight, residue_int


def _context(args):
    if args.parities is None:
        raise ValueError("--parities is required")
    parities = parse_ints(args.parities, "parity list")
    m = parities.count(0)
    return build_context(m, len(parities) - m, parities, args.p)


def _parse_index_set(text: str):
    return frozenset(parse_ints(text, "index set") if text.strip() else ())


# the parser main() reuses; built on the first call, not at import
_PARSER: Optional[argparse.ArgumentParser] = None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="supercrystals",
        description="Dual crystal structure, linkage invariants, and lowering "
        "operators for GL(m|n) weights in arbitrary characteristic.",
    )
    top.add_argument("--p", type=int, default=0, help="characteristic (0 or prime)")
    top.add_argument("--parities", help="comma-separated 0/1 parity sequence")
    # unset (None) reads as the command's first declared format
    top.add_argument("--format", choices=("text", "json", "dot"), default=None)
    top.add_argument("--out", help="write output to this file instead of stdout")
    # accept --format/--out before or after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "dot"), default=argparse.SUPPRESS
    )
    common.add_argument("--out", default=argparse.SUPPRESS)
    # the positions i < j of the lowering-operator commands
    pair = argparse.ArgumentParser(add_help=False, parents=[common])
    pair.add_argument("--i", type=int, required=True)
    pair.add_argument("--j", type=int, required=True)
    sub = top.add_subparsers(dest="command", required=True)

    sig = sub.add_parser("signature", help="raw and reduced r-signatures", parents=[common])
    sig.add_argument("--weight", required=True)
    sig.add_argument("--r", default="all")
    sig.set_defaults(handler=cmd_signature, formats=("text", "json"))

    app = sub.add_parser("apply", help="apply a star operator", parents=[common])
    app.add_argument("--op", choices=("estar", "fstar"), required=True)
    app.add_argument("--r", type=int, required=True)
    app.add_argument("--weight", required=True)
    app.set_defaults(handler=cmd_apply, formats=("text", "json"))

    cls = sub.add_parser("classify", help="normal/good/conormal/cogood at a position", parents=[common])
    cls.add_argument("--weight", required=True)
    cls.add_argument("--i", type=int, required=True)
    cls.add_argument("--r", type=int)
    cls.set_defaults(handler=cmd_classify, formats=("text", "json"))

    gra = sub.add_parser("graph", help="explore the crystal component", parents=[common])
    gra.add_argument("--weight", required=True)
    gra.add_argument("--depth", type=int, default=1)
    gra.set_defaults(handler=cmd_graph, formats=("json", "dot"))

    blk = sub.add_parser("blocks", help="partition weights by their wt value", parents=[common])
    blk.add_argument(
        "--weights",
        help="path to a JSON array of weights (stdin when omitted)",
    )
    blk.set_defaults(handler=cmd_blocks, formats=("json",))

    pb = sub.add_parser("pbw", help="symbolic enveloping-algebra operations", parents=[common])
    pb.set_defaults(formats=("text",))
    pbsub = pb.add_subparsers(dest="pbw_command", required=True)

    low = pbsub.add_parser("lower", help="the lowering operator S_{i,j}(A)", parents=[pair])
    low.add_argument("--A", default="")
    low.set_defaults(handler=cmd_pbw_lower)

    rec = pbsub.add_parser("check-recurrence", parents=[pair])
    rec.add_argument("--A", required=True)
    rec.add_argument("--k", type=int, required=True)
    rec.set_defaults(handler=cmd_pbw_recurrence)

    com = pbsub.add_parser("check-commutator", parents=[pair])
    com.add_argument("--A", default="")
    com.add_argument("--l", type=int, required=True)
    com.set_defaults(handler=cmd_pbw_commutator)

    cen = pbsub.add_parser("check-central", parents=[common])
    cen.add_argument("--r", type=int, required=True)
    cen.set_defaults(handler=cmd_pbw_central)

    ver = pbsub.add_parser("verma-scalar", parents=[common])
    ver.add_argument("--weight", required=True)
    ver.add_argument("--r", type=int, required=True)
    ver.set_defaults(handler=cmd_pbw_verma)

    vfy = sub.add_parser("verify", help="run a verification suite", parents=[common])
    vfy.add_argument("suite", choices=sweeps.SUITES + ("all",))
    vfy.add_argument("--max-rank", type=int, default=4)
    # an option the run does not read exits 2 (cmd_verify); left out,
    # run_suite's default holds
    vfy.add_argument(
        "--max-r",
        type=int,
        help="largest r of the Z_r checks (default 4); the x-element brackets"
        " of pbw-identities stop at min(max_r, 3)",
    )
    vfy.add_argument(
        "--coeff-window", type=int, help="largest |coefficient| of the swept weights (default 4)"
    )
    vfy.add_argument(
        "--p-list",
        help="comma-separated characteristics of an unpinned sweep (default 0,2,3,5)",
    )
    vfy.add_argument(
        "--seed", type=int, help="seed of the random words of pbw-identities (default 0)"
    )
    vfy.add_argument("--processes", type=int, default=None)
    vfy.add_argument(
        "--pin-parities",
        action="store_true",
        help="sweep only the context of --parities and --p",
    )
    vfy.set_defaults(handler=cmd_verify, formats=("text", "json"))
    return top


def cmd_signature(ctx, args) -> Tuple[int, str]:
    lam = parse_weight(args.weight, ctx)
    if args.r == "all":
        rs = crystal.relevant_residues(ctx, lam)
    else:
        try:
            rs = [int(args.r)]
        except ValueError:
            raise ValueError(f"malformed residue {args.r!r}") from None
    rows = []
    for r in rs:
        raw = crystal.r_signature(ctx, lam, r)
        rows.append((r, raw, crystal.reduce_signature(raw)))
    if args.format == "json":
        return 0, json.dumps(
            [{"r": r, "raw": str(raw), "reduced": str(red)} for r, raw, red in rows]
        )
    if len(rows) == 1 and args.r != "all":
        _, raw, red = rows[0]
        return 0, f"{raw} / {red}"
    return 0, "\n".join(f"r={r}: {raw} / {red}" for r, raw, red in rows)


def cmd_apply(ctx, args) -> Tuple[int, str]:
    lam = parse_weight(args.weight, ctx)
    op = crystal.e_star if args.op == "estar" else crystal.f_star
    out = op(ctx, lam, args.r)
    if args.format == "json":
        return 0, json.dumps(list(out) if out is not None else None)
    return 0, "undefined" if out is None else ",".join(str(c) for c in out)


def cmd_classify(ctx, args) -> Tuple[int, str]:
    lam = parse_weight(args.weight, ctx)
    r = args.r if args.r is not None else residue_int(ctx, lam, args.i)
    cls = crystal.classify_index(ctx, lam, args.i, r)
    if args.format == "json":
        return 0, json.dumps({"kind": cls.kind, "r": cls.r})
    return 0, f"{cls.kind} (r={cls.r})"


def cmd_graph(ctx, args) -> Tuple[int, str]:
    lam = parse_weight(args.weight, ctx)
    g = graph.crystal_component(ctx, lam, args.depth)
    return 0, g.to_dot() if args.format == "dot" else json.dumps(g.to_json())


def cmd_blocks(ctx, args) -> Tuple[int, str]:
    if args.weights:
        with open(args.weights) as fh:
            data = json.load(fh)
    else:
        data = json.load(sys.stdin)
    # bool is an int subclass, but JSON true/false is no coefficient
    if not isinstance(data, list) or not all(
        isinstance(w, list) and all(type(c) is int for c in w) for w in data
    ):
        raise ValueError("blocks takes a JSON array of integer arrays")
    weights = [tuple(w) for w in data]
    blocks = linkage.partition_blocks(ctx, weights)
    return 0, json.dumps(
        [{"wt": key.to_json(), "weights": [list(w) for w in ws]} for key, ws in blocks]
    )


def cmd_pbw_lower(ctx, args) -> Tuple[int, str]:
    a_set = _parse_index_set(args.A)
    return 0, pbw.s_element(ctx, args.i, args.j, a_set).dump()


def cmd_pbw_recurrence(ctx, args) -> Tuple[int, str]:
    ok = pbw.recurrence_check(ctx, args.i, args.j, _parse_index_set(args.A), args.k)
    return (0, "pass") if ok else (1, "FAIL")


def cmd_pbw_commutator(ctx, args) -> Tuple[int, str]:
    result = pbw.commutator_lemma_check(
        ctx, args.i, args.j, _parse_index_set(args.A), args.l
    )
    if result is None:
        raise ValueError("input is outside the four cases of the lemma")
    return (0, "pass") if result else (1, "FAIL")


def cmd_pbw_central(ctx, args) -> Tuple[int, str]:
    zt = pbw.z_tilde_element(ctx, args.r)
    bad = []
    for i in range(1, ctx.rank + 1):
        for j in range(1, ctx.rank + 1):
            if not pbw.SuperElt.gen(ctx, i, j).bracket(zt).is_zero():
                bad.append((i, j))
    return (0, "pass") if not bad else (1, f"FAIL at generators {bad}")


def cmd_pbw_verma(ctx, args) -> Tuple[int, str]:
    lam = parse_weight(args.weight, ctx)
    z = pbw.z_element(ctx, args.r).reduce_mod_J()
    got = pbw.verma_scalar(z, lam)
    want = linkage.z_scalar(ctx, lam, args.r)
    status = "pass" if got == want else "FAIL"
    return 0 if got == want else 1, f"{got} (predicted {want}): {status}"


# the options a verify run checks, in this order; all but p and parities
# pass on to run_suite
_VERIFY_OPTIONS = ("coeff_window", "p_list", "seed", "max_r", "p", "parities")


def _verify_reads(suite: str, pinned: bool) -> frozenset:
    """The options of sweeps.SUITE_OPTIONS[suite] (their union for all); a
    pinned run reads the one context of --parities and --p in place of
    --p-list, and --p only when the suite sweeps characteristics."""
    suites = sweeps.SUITES if suite == "all" else (suite,)
    reads = frozenset().union(*(sweeps.SUITE_OPTIONS[name] for name in suites))
    if pinned:
        reads = reads - {"p_list"} | {"parities"} | ({"p"} if "p_list" in reads else set())
    return reads


def cmd_verify(ctx, args) -> Tuple[int, str]:
    # an option is given when set; --p, whose default is 0, when nonzero
    given = [n for n in _VERIFY_OPTIONS if getattr(args, n) is not None and (n != "p" or args.p)]
    reads = _verify_reads(args.suite, args.pin_parities)
    for name in [name for name in given if name not in reads]:
        mode = ""
        if name in _verify_reads(args.suite, not args.pin_parities):
            mode = " with --pin-parities" if args.pin_parities else " without --pin-parities"
        raise ValueError(f"--{name.replace('_', '-')} does not apply to {args.suite}{mode}")
    options = {name: getattr(args, name) for name in given if name not in ("p", "parities")}
    pin = None
    if args.pin_parities:
        ctx = _context(args)
        pin, options["p_list"] = ctx.parities, [ctx.p]
    elif args.p_list is not None:
        options["p_list"] = parse_ints(args.p_list, "characteristic list")
    reports = sweeps.run_suite(
        args.suite,
        max_rank=args.max_rank,
        parities_pin=pin,
        processes=args.processes,
        **options,
    )
    code = 0 if sum(rep.failures for rep in reports) == 0 else 1
    if args.format == "json":
        return code, json.dumps(
            [
                {
                    "name": rep.name,
                    "checks": rep.checks,
                    "failures": rep.failures,
                    "passed": rep.passed,
                    "counterexample": rep.counterexample,
                }
                for rep in reports
            ]
        )
    lines = []
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        line = f"[{status}] {rep.name}: {rep.checks} checks, {rep.failures} failures"
        if rep.counterexample:
            line += f"\n       first counterexample: {rep.counterexample}"
        lines.append(line)
    return code, "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        if args.format is None:
            args.format = args.formats[0]
        elif args.format not in args.formats:
            command = f"{args.command} {getattr(args, 'pbw_command', '')}".rstrip()
            raise ValueError(
                f"--format {args.format} does not apply to {command},"
                f" which prints {' or '.join(args.formats)}"
            )
        # verify reads a context only when pinned, and builds it itself
        ctx = None if args.command == "verify" else _context(args)
        code, text = args.handler(ctx, args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return code
    except (ContextError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
