"""Command-line driver.

Exit codes: 0 all checks passed; 1 a mathematical check failed (the
report says which); 2 usage, parse or manifest errors; 3 internal
invariant violation or any unexpected exception (one line, no traceback).
"""

from __future__ import annotations

import argparse
import sys

from .bundles import BUILTIN_NAMES, builtin, bundle_selfcheck
from .classical import (POLY, dual_lie_bialgebra, extract_lie_bialgebra,
                        extract_poisson_structure, validate_lie_bialgebra)
from .drinfeld import (PRIME_THEN_VEE, VEE_THEN_PRIME, prime_membership,
                       prime_presentation, roundtrip_check, vee_presentation)
from .errors import InputError, MathematicalFailure, QdpError
from .exprs import element_to_expr, parse_element
from .hopf import SERIES, check_diamond, check_hopf_axioms
from .manifest import (dump_json, load_json, manifest_text,
                       presentation_from_manifest, presentation_to_manifest,
                       seed_from_manifest)
# pairing_axioms_check is not called here; bench/tracer.py wraps this binding
from .pairing import orthogonal_membership, pair, pairing_axioms_check
from .report import HopfReport, render_json
from .selftest import (DEFAULT_SEED, RunConfig, limit_duality_rows,
                       run_selftest)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--h-order", type=int, default=None, metavar="N",
                        help="series truncation order (default 8)")
    common.add_argument("--degree", type=int, default=None, metavar="D",
                        help="total-degree cap for degree-capped "
                             "presentations (default 8)")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for the deterministic random batteries")

    ap = argparse.ArgumentParser(
        prog="qdp",
        description="Exact-arithmetic checks for deformation Hopf algebras")
    sub = ap.add_subparsers(dest="cmd", metavar="command")

    sub.add_parser("list", parents=[common], help="list built-in bundles")

    p = sub.add_parser("show", parents=[common],
                       help="describe a built-in bundle")
    p.add_argument("name")
    p.add_argument("--manifest", action="store_true",
                   help="emit the presentation manifest JSON")

    p = sub.add_parser("check-hopf", parents=[common],
                       help="verify the Hopf axioms")
    p.add_argument("source", help="built-in name or manifest path")
    p.add_argument("--bound", type=int, default=3,
                   help="monomial degree bound (default 3)")

    p = sub.add_parser("diamond", parents=[common],
                       help="verify rewriting confluence")
    p.add_argument("source", help="built-in name or manifest path")

    for cmd, hlp in (("prime", "rescale generators by h"),
                     ("vee", "rescale generators by 1/h")):
        p = sub.add_parser(cmd, parents=[common], help=hlp)
        p.add_argument("source")
        p.add_argument("-o", "--output", metavar="OUT.json",
                       help="write the transformed manifest here")

    p = sub.add_parser("member", parents=[common],
                       help="membership in the h-rescaling subalgebra")
    p.add_argument("source")
    p.add_argument("--element", required=True, metavar="EXPR")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--via", choices=("delta", "pairing", "both"),
                   default="delta")

    p = sub.add_parser("limit", parents=[common],
                       help="extract and validate the classical structure")
    p.add_argument("source")

    p = sub.add_parser("dual-check", parents=[common],
                       help="full duality instance check on a built-in")
    p.add_argument("name")

    p = sub.add_parser("roundtrip", parents=[common],
                       help="apply both rescaling functors and compare")
    p.add_argument("source")
    p.add_argument("--direction", choices=("prime-vee", "vee-prime"),
                   required=True)

    p = sub.add_parser("pair", parents=[common],
                       help="evaluate a seeded pairing")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--seed-file", required=True, metavar="SEED.json")
    p.add_argument("--left-elem", required=True, metavar="EXPR")
    p.add_argument("--right-elem", required=True, metavar="EXPR")

    sub.add_parser("selftest", parents=[common],
                   help="run the whole verification battery")
    return ap


def _config(args) -> RunConfig:
    return RunConfig(
        h_order=args.h_order if args.h_order is not None else 8,
        degree_cap=args.degree if args.degree is not None else 8,
        seed=args.seed,
        output_format=args.format)


def _load_presentation(source: str, args, cfg: RunConfig):
    """A built-in at the configured (N, D), or a manifest at its own.

    A manifest fixes its h-order (and a SERIES manifest its degree cap):
    cfg takes them over, so that the report header states what was run,
    and an explicit --h-order or --degree that differs is a usage error.
    """
    if source in BUILTIN_NAMES:
        return builtin(source, cfg.h_order, cfg.degree_cap).quea
    P = presentation_from_manifest(load_json(source))
    fixed = [("h_order", "--h-order", args.h_order, P.h_order)]
    if P.model == SERIES:
        fixed.append(("degree_cap", "--degree", args.degree, P.degree_cap))
    for field, flag, given, value in fixed:
        if given is not None and given != value:
            raise InputError(f"{flag} {given} differs from the manifest "
                             f"{source}, which is at {value}")
        setattr(cfg, field, value)
    return P


def _emit_report(rep: HopfReport, cfg: RunConfig, command: str,
                 extra: dict | None = None) -> int:
    payload = {
        "tool": "qdp",
        "command": command,
        "h_order": cfg.h_order,
        "degree_cap": cfg.degree_cap,
        "seed": cfg.seed,
    }
    if extra:
        payload.update(extra)
    payload["checks"] = rep.to_jsonable()
    payload["passed"] = rep.passed
    if cfg.output_format == "json":
        sys.stdout.write(render_json(payload))
    else:
        print(f"[{command}] N={cfg.h_order} D={cfg.degree_cap}")
        print(rep)
        print("result:", "PASS" if rep.passed else "FAIL")
    return EXIT_OK if rep.passed else EXIT_MATH


# -- subcommands --------------------------------------------------------------------


def _cmd_list(args, cfg) -> int:
    for name in BUILTIN_NAMES:
        print(name)
    return EXIT_OK


def _cmd_show(args, cfg) -> int:
    b = builtin(args.name, cfg.h_order, cfg.degree_cap)
    if args.manifest:
        sys.stdout.write(manifest_text(presentation_to_manifest(b.quea)))
        return EXIT_OK
    P = b.quea
    print(f"{b.name}: {P.model} presentation, N={P.h_order}, "
          f"D={P.degree_cap}")
    print(f"  generators: {', '.join(P.generators)}")
    for (i, j), r in sorted(P.relations.items()):
        if not r.is_zero():
            print(f"  relation: {P.generators[j]}*{P.generators[i]} = "
                  f"{P.generators[i]}*{P.generators[j]} + "
                  f"{element_to_expr(r, P)}")
    print(f"  classical structure: {b.lie!r}")
    print(f"  expected dual:       {b.expected_dual!r}")
    print(f"  canonical pairing seed: "
          f"{'yes' if b.pairing_seed else 'none'}")
    print(f"  notes: {b.notes}")
    return EXIT_OK


def _cmd_check_hopf(args, cfg) -> int:
    P = _load_presentation(args.source, args, cfg)
    rep = check_hopf_axioms(P, args.bound)
    return _emit_report(rep, cfg, "check-hopf", {"presentation": P.name,
                                                 "bound": args.bound})


def _cmd_diamond(args, cfg) -> int:
    P = _load_presentation(args.source, args, cfg)
    rep = check_diamond(P)
    return _emit_report(rep, cfg, "diamond", {"presentation": P.name})


def _cmd_transform(args, cfg) -> int:
    """`prime` or `vee`, as args.cmd names it."""
    which = args.cmd
    P = _load_presentation(args.source, args, cfg)
    out = (prime_presentation(P, cfg.degree_cap) if which == "prime"
           else vee_presentation(P))
    if which == "prime" and cfg.h_order < cfg.degree_cap:
        print(f"warning: h-order {cfg.h_order} < degree cap "
              f"{cfg.degree_cap}; high-degree data is not certified",
              file=sys.stderr)
    manifest = presentation_to_manifest(out)
    if args.output:
        dump_json(manifest, args.output)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(manifest_text(manifest))
    return EXIT_OK


def _cmd_member(args, cfg) -> int:
    P = _load_presentation(args.source, args, cfg)
    elem = parse_element(args.element, P)
    rep = HopfReport()
    certs = {}
    if args.via in ("delta", "both"):
        certs["delta"] = prime_membership(elem, P, args.n_max)
    if args.via in ("pairing", "both"):
        if args.source not in BUILTIN_NAMES:
            raise InputError("the pairing route needs a built-in bundle "
                             "with a canonical seed")
        seed = builtin(args.source, cfg.h_order, cfg.degree_cap).pairing_seed
        if seed is None:
            raise InputError(f"{args.source} has no canonical pairing seed")
        certs["pairing"], = orthogonal_membership([elem], seed, args.n_max)
    for route, cert in sorted(certs.items()):
        rep.add(f"membership-{route}", args.element, cert.is_member,
                f"{cert.verdict}"
                + (f", witness n={cert.witness}" if cert.witness is not None
                   else ""))
    if len(certs) == 2:
        rep.add("routes-agree", args.element,
                certs["delta"].is_member == certs["pairing"].is_member)
    extra = {"certificates": {k: c.to_jsonable() for k, c in certs.items()}}
    return _emit_report(rep, cfg, "member", extra)


def _cmd_limit(args, cfg) -> int:
    P = _load_presentation(args.source, args, cfg)
    if P.model == SERIES:
        L = extract_poisson_structure(P)
    else:
        L = extract_lie_bialgebra(P)
    rep = validate_lie_bialgebra(L)
    extra = {"structure": L.to_jsonable()}
    if P.model == POLY:
        extra["dual"] = dual_lie_bialgebra(L).to_jsonable()
    if cfg.output_format == "text":
        print(f"classical structure: {L!r}")
    return _emit_report(rep, cfg, "limit", extra)


def _cmd_dual_check(args, cfg) -> int:
    b = builtin(args.name, cfg.h_order, cfg.degree_cap)
    rep = HopfReport()
    rep.extend(bundle_selfcheck(b, degree_bound=2))
    rows, L, LP = limit_duality_rows(b, cfg.degree_cap)
    rep.rows.extend(rows)
    rep.extend(roundtrip_check(b.quea, PRIME_THEN_VEE, cfg.degree_cap))
    extra = {"bundle": args.name,
             "lie": L.to_jsonable(),
             "dual": LP.to_jsonable()}
    return _emit_report(rep, cfg, "dual-check", extra)


def _cmd_roundtrip(args, cfg) -> int:
    P = _load_presentation(args.source, args, cfg)
    direction = (PRIME_THEN_VEE if args.direction == "prime-vee"
                 else VEE_THEN_PRIME)
    cap = cfg.degree_cap if direction == PRIME_THEN_VEE else None
    rep = roundtrip_check(P, direction, cap)
    return _emit_report(rep, cfg, "roundtrip",
                        {"presentation": P.name,
                         "direction": args.direction})


def _cmd_pair(args, cfg) -> int:
    left = _load_presentation(args.left, args, cfg)
    right = _load_presentation(args.right, args, cfg)
    seed = seed_from_manifest(load_json(args.seed_file), left, right)
    a = parse_element(args.left_elem, left)
    b = parse_element(args.right_elem, right)
    value = pair(a, b, seed)
    payload = {
        "tool": "qdp", "command": "pair",
        "h_order": cfg.h_order, "degree_cap": cfg.degree_cap,
        "left": args.left_elem, "right": args.right_elem,
        "value": value.to_jsonable(),
    }
    if cfg.output_format == "json":
        sys.stdout.write(render_json(payload))
    else:
        print(f"<{args.left_elem}, {args.right_elem}> = {value}")
    return EXIT_OK


def _cmd_selftest(args, cfg) -> int:
    payload = run_selftest(cfg)
    if cfg.output_format == "json":
        sys.stdout.write(render_json(payload))
    else:
        rep = HopfReport()
        for row in payload["checks"]:
            rep.add(row["check"], row["subject"], row["passed"],
                    row.get("detail", ""))
        print(f"[selftest] N={cfg.h_order} D={cfg.degree_cap} "
              f"seed={cfg.seed}")
        print(rep)
        print("result:", "PASS" if payload["passed"] else "FAIL")
    return EXIT_OK if payload["passed"] else EXIT_MATH


_HANDLERS = {
    "list": _cmd_list,
    "show": _cmd_show,
    "check-hopf": _cmd_check_hopf,
    "diamond": _cmd_diamond,
    "prime": _cmd_transform,
    "vee": _cmd_transform,
    "member": _cmd_member,
    "limit": _cmd_limit,
    "dual-check": _cmd_dual_check,
    "roundtrip": _cmd_roundtrip,
    "pair": _cmd_pair,
    "selftest": _cmd_selftest,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        first = argv[0] if argv else ""
        if first.startswith("-") and first not in ("-h", "--help"):
            # argparse would read the flag's value as the command
            parser.error(f"{first} comes before the command; flags follow "
                         "the command, as in 'qdp member borel2 --h-order 3'")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if not args.cmd:
        parser.print_help()
        return EXIT_USAGE
    try:
        cfg = _config(args)
        return _HANDLERS[args.cmd](args, cfg)
    except MathematicalFailure as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return EXIT_MATH
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QdpError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
