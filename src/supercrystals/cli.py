"""Command-line interface.

Exit codes: 0 success, 1 property-check failure, 2 usage error.

``main`` builds its argument parser once per process, on its first call, and
reuses it for every later call; ``build_parser`` returns a fresh parser for a
caller that wants to extend one.  Each subcommand's parser, down to the
``pbw`` subcommands, names its handler with ``set_defaults(handler=...)``,
and ``main`` calls it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import crystal, graph, linkage, pbw, sweeps
from .weights import ContextError, build_context, parse_weight, residue_int


def _parse_parities(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ContextError(f"malformed parity list {text!r}") from exc


def _context(args):
    parities = _parse_parities(args.parities)
    m = parities.count(0)
    return build_context(m, len(parities) - m, parities, args.p)


def _parse_index_set(text: str):
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(int(x) for x in text.split(","))


# the parser main() reuses; built on the first call, not at import
_PARSER: Optional[argparse.ArgumentParser] = None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="supercrystals",
        description="Dual crystal structure, linkage invariants, and lowering "
        "operators for GL(m|n) weights in arbitrary characteristic.",
    )
    top.add_argument("--p", type=int, default=0, help="characteristic (0 or prime)")
    top.add_argument(
        "--parities", required=True, help="comma-separated 0/1 parity sequence"
    )
    # unset (None) reads as text, except for graph and blocks, which print
    # JSON and reject an explicit --format text
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
    sig.set_defaults(handler=cmd_signature)

    app = sub.add_parser("apply", help="apply a star operator", parents=[common])
    app.add_argument("--op", choices=("estar", "fstar"), required=True)
    app.add_argument("--r", type=int, required=True)
    app.add_argument("--weight", required=True)
    app.set_defaults(handler=cmd_apply)

    cls = sub.add_parser("classify", help="normal/good/conormal/cogood at a position", parents=[common])
    cls.add_argument("--weight", required=True)
    cls.add_argument("--i", type=int, required=True)
    cls.add_argument("--r", type=int)
    cls.set_defaults(handler=cmd_classify)

    gra = sub.add_parser("graph", help="explore the crystal component", parents=[common])
    gra.add_argument("--weight", required=True)
    gra.add_argument("--depth", type=int, default=1)
    gra.set_defaults(handler=cmd_graph)

    blk = sub.add_parser("blocks", help="partition weights by their wt value", parents=[common])
    blk.add_argument(
        "--weights",
        help="path to a JSON array of weights (stdin when omitted)",
    )
    blk.set_defaults(handler=cmd_blocks)

    pb = sub.add_parser("pbw", help="symbolic enveloping-algebra operations", parents=[common])
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
    vfy.add_argument(
        "--max-r",
        type=int,
        default=4,
        help="largest r of the Z_r checks; the x-element brackets of"
        " pbw-identities stop at min(max_r, 3)",
    )
    vfy.add_argument("--coeff-window", type=int, default=4)
    vfy.add_argument(
        "--p-list",
        help="comma-separated characteristics (default 0,2,3,5); not allowed"
        " with --pin-parities, which sweeps --p only",
    )
    vfy.add_argument("--seed", type=int, default=0)
    vfy.add_argument("--processes", type=int, default=None)
    vfy.add_argument(
        "--pin-parities",
        action="store_true",
        help="restrict the sweep to the context given by --parities",
    )
    vfy.set_defaults(handler=cmd_verify)
    return top


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_signature(ctx, args) -> int:
    lam = parse_weight(args.weight, ctx)
    if args.r == "all":
        rs = crystal.relevant_residues(ctx, lam)
    else:
        rs = [int(args.r)]
    rows = []
    for r in rs:
        raw = crystal.r_signature(ctx, lam, r)
        rows.append((r, raw, crystal.reduce_signature(raw)))
    if args.format == "json":
        _emit(
            args,
            json.dumps(
                [
                    {"r": r, "raw": str(raw), "reduced": str(red)}
                    for r, raw, red in rows
                ]
            ),
        )
    elif len(rows) == 1 and args.r != "all":
        _, raw, red = rows[0]
        _emit(args, f"{raw} / {red}")
    else:
        _emit(args, "\n".join(f"r={r}: {raw} / {red}" for r, raw, red in rows))
    return 0


def cmd_apply(ctx, args) -> int:
    lam = parse_weight(args.weight, ctx)
    op = crystal.e_star if args.op == "estar" else crystal.f_star
    out = op(ctx, lam, args.r)
    if args.format == "json":
        _emit(args, json.dumps(list(out) if out is not None else None))
    else:
        _emit(args, "undefined" if out is None else ",".join(str(c) for c in out))
    return 0


def cmd_classify(ctx, args) -> int:
    lam = parse_weight(args.weight, ctx)
    r = args.r if args.r is not None else residue_int(ctx, lam, args.i)
    cls = crystal.classify_index(ctx, lam, args.i, r)
    if args.format == "json":
        _emit(args, json.dumps({"kind": cls.kind, "r": cls.r}))
    else:
        _emit(args, f"{cls.kind} (r={cls.r})")
    return 0


def cmd_graph(ctx, args) -> int:
    lam = parse_weight(args.weight, ctx)
    g = graph.crystal_component(ctx, lam, args.depth)
    if args.format == "dot":
        _emit(args, g.to_dot())
    else:
        _emit(args, json.dumps(g.to_json()))
    return 0


def cmd_blocks(ctx, args) -> int:
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
    _emit(
        args,
        json.dumps(
            [
                {"wt": key.to_json(), "weights": [list(w) for w in ws]}
                for key, ws in blocks
            ]
        ),
    )
    return 0


def cmd_pbw_lower(ctx, args) -> int:
    a_set = _parse_index_set(args.A)
    _emit(args, pbw.s_element(ctx, args.i, args.j, a_set).dump())
    return 0


def cmd_pbw_recurrence(ctx, args) -> int:
    ok = pbw.recurrence_check(ctx, args.i, args.j, _parse_index_set(args.A), args.k)
    _emit(args, "pass" if ok else "FAIL")
    return 0 if ok else 1


def cmd_pbw_commutator(ctx, args) -> int:
    result = pbw.commutator_lemma_check(
        ctx, args.i, args.j, _parse_index_set(args.A), args.l
    )
    if result is None:
        raise ValueError("input is outside the four cases of the lemma")
    _emit(args, "pass" if result else "FAIL")
    return 0 if result else 1


def cmd_pbw_central(ctx, args) -> int:
    zt = pbw.z_tilde_element(ctx, args.r)
    bad = []
    for i in range(1, ctx.rank + 1):
        for j in range(1, ctx.rank + 1):
            if not pbw.SuperElt.gen(ctx, i, j).bracket(zt).is_zero():
                bad.append((i, j))
    _emit(args, "pass" if not bad else f"FAIL at generators {bad}")
    return 0 if not bad else 1


def cmd_pbw_verma(ctx, args) -> int:
    lam = parse_weight(args.weight, ctx)
    z = pbw.z_element(ctx, args.r).reduce_mod_J()
    got = pbw.verma_scalar(z, lam)
    want = linkage.z_scalar(ctx, lam, args.r)
    status = "pass" if got == want else "FAIL"
    _emit(args, f"{got} (predicted {want}): {status}")
    return 0 if got == want else 1


def cmd_verify(ctx, args) -> int:
    if args.pin_parities:
        if args.p_list is not None:
            raise ValueError(
                "--p-list does not apply with --pin-parities, which sweeps --p only"
            )
        pin = ctx.parities
        p_list = [ctx.p]
    else:
        pin = None
        text = "0,2,3,5" if args.p_list is None else args.p_list
        p_list = [int(x) for x in text.split(",")]
    reports = sweeps.run_suite(
        args.suite,
        max_rank=args.max_rank,
        coeff_window=args.coeff_window,
        p_list=p_list,
        parities_pin=pin,
        seed=args.seed,
        processes=args.processes,
        max_r=args.max_r,
    )
    failures = sum(rep.failures for rep in reports)
    if args.format == "json":
        _emit(
            args,
            json.dumps(
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
            ),
        )
        return 0 if failures == 0 else 1
    lines = []
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        line = f"[{status}] {rep.name}: {rep.checks} checks, {rep.failures} failures"
        if rep.counterexample:
            line += f"\n       first counterexample: {rep.counterexample}"
        lines.append(line)
    _emit(args, "\n".join(lines))
    return 0 if failures == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        if args.format == "dot" and args.command != "graph":
            raise ValueError(f"--format dot applies only to graph, not {args.command}")
        if args.format == "json" and args.command == "pbw":
            raise ValueError(f"--format json does not apply to pbw {args.pbw_command}")
        if args.format == "text" and args.command in ("graph", "blocks"):
            raise ValueError(
                f"--format text does not apply to {args.command}, which prints JSON"
            )
        return args.handler(_context(args), args)
    except (ContextError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
