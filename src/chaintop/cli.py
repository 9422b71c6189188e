"""Command-line front end.

Machine-readable JSON goes to stdout; the human-readable table for
`suite run` goes to stderr so the two can be consumed separately.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .chains import make_chain
from .errors import ChainTopError, ParseError
from .formats import (
    format_interval_set,
    load_poset,
    load_topology,
    parse_interval_set,
    poset_to_dict,
    separating_to_dict,
    topology_to_dict,
)
from .intervals import convex_components, decompose_open_finite, normalize
from .poset import (
    PosetMap,
    bounds,
    classify,
    cone,
    dm_closure,
    extremum,
    is_cut_stable,
    is_directed,
    maximal_chains,
)
from .relations import chain_way_below, way_below, way_way_below
from .separating import separate_from_lower, verify_separating
from .suite import (
    CLAIM_IDS,
    FAULT_KERNELS,
    INFINITE_CHAIN_IDS,
    SEARCH_TARGETS,
    SearchConfig,
    SuiteConfig,
    find_counterexample,
    run_suite,
)
from .topology import CANONICAL_NAMES, canonical_topology, join_topologies, separation_report, topology_equal


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}", position=exc.start) from exc


def _load_poset_arg(path: str):
    return load_poset(_read(path))


def _emit(data) -> None:
    print(json.dumps(data, sort_keys=True))


def _parse_index(text: str) -> int:
    text = text.strip()
    if not text.isdecimal():
        raise ParseError(f"expected an element index, got {text!r}")
    return int(text)


def _parse_indices(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    parts = [part.strip() for part in text.split(",")]
    if not all(part.isdecimal() for part in parts):
        raise ParseError(f"expected comma-separated element indices, got {text!r}")
    return [int(part) for part in parts]


def _cmd_poset(args) -> int:
    P, labels = _load_poset_arg(args.file)
    if args.action == "check":
        _emit({"ok": True, "n": P.n, "canonical": poset_to_dict(P, labels)})
    elif args.action == "classify":
        _emit(classify(P).as_dict())
    elif args.action == "maxchains":
        _emit([sorted(c) for c in maximal_chains(P)])
    return 0


def _cmd_poset_query(args) -> int:
    P, _ = _load_poset_arg(args.file)
    subset = _parse_indices(args.set)
    if args.op == "cone":
        _emit(sorted(cone(P, subset, args.dir)))
    elif args.op == "bounds":
        _emit(sorted(bounds(P, subset, args.side)))
    elif args.op == "extremum":
        _emit(extremum(P, subset, args.kind))
    elif args.op == "dmclosure":
        _emit(sorted(dm_closure(P, subset)))
    elif args.op == "directed":
        _emit(is_directed(P, subset))
    return 0


def _cmd_poset_cutstable(args) -> int:
    src, _ = _load_poset_arg(args.source)
    tgt, _ = _load_poset_arg(args.target)
    image = tuple(_parse_indices(args.image))
    _emit(is_cut_stable(PosetMap(src, tgt, image)))
    return 0


def _cmd_topo(args) -> int:
    if args.action == "make":
        P, _ = _load_poset_arg(args.poset)
        _emit(topology_to_dict(canonical_topology(P, args.name)))
    elif args.action == "join":
        T1 = load_topology(_read(args.left))
        T2 = load_topology(_read(args.right))
        _emit(topology_to_dict(join_topologies(T1, T2)))
    elif args.action == "equal":
        T1 = load_topology(_read(args.left))
        T2 = load_topology(_read(args.right))
        equal = topology_equal(T1, T2)
        _emit(equal)
        return 0 if equal else 1
    elif args.action == "report":
        P, _ = _load_poset_arg(args.poset)
        T = canonical_topology(P, args.name)
        _emit(separation_report(T).as_dict())
    return 0


def _cmd_waybelow(args) -> int:
    if args.chain is not None:
        C = make_chain(args.chain)
        x, y = C.parse(args.x), C.parse(args.y)
        _emit(chain_way_below(C, x, y))
    else:
        P, _ = _load_poset_arg(args.poset)
        x, y = _parse_index(args.x), _parse_index(args.y)
        result = way_way_below(P, x, y) if args.www else way_below(P, x, y)
        _emit(result)
    return 0


def _cmd_suite(args) -> int:
    cfg = SuiteConfig(
        min_n=args.min_n,
        max_n=args.max_n,
        seed=args.seed,
        chains=tuple(args.chains.split(",")) if args.chains else INFINITE_CHAIN_IDS,
        claims=tuple(args.claims.split(",")) if args.claims else CLAIM_IDS,
        faults=tuple(args.inject_fault),
    )
    report = run_suite(cfg)
    print(report.as_json())
    if not args.json:
        width = max(len(r.claim) for r in report.records)
        for r in report.records:
            line = f"{r.claim:{width}s}  {r.verdict:4s}  instances={r.instances}"
            if r.witnesses:
                line += f"  first witness: {r.witnesses[0]}"
            print(line, file=sys.stderr)
    return 0 if report.passed() else 1


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        target=args.target,
        min_n=args.min_n,
        max_n=args.max_n,
        seed=args.seed,
        max_instances=args.max_instances,
    )
    found = find_counterexample(cfg)
    if found is None:
        _emit({"found": False, "instances_tried": cfg.max_instances})
        return 1
    _emit(
        {
            "found": True,
            "instances_tried": found.instances_tried,
            "poset": poset_to_dict(found.poset),
            "witness": found.witness,
        }
    )
    return 0


def _cmd_decompose(args) -> int:
    if args.chain is not None:
        C = make_chain(args.chain)
        IS = parse_interval_set(C, args.intervals)
        pieces = convex_components(IS)
        _emit(
            {
                "normalized": format_interval_set(normalize(IS)),
                "components": [format_interval_set(p) for p in pieces],
            }
        )
    else:
        P, _ = _load_poset_arg(args.poset)
        T = canonical_topology(P, args.name)
        pieces = decompose_open_finite(P, T, _parse_indices(args.set))
        _emit([sorted(p) for p in pieces])
    return 0


def _cmd_separate(args) -> int:
    C = make_chain(args.chain)
    A = parse_interval_set(C, args.lower)
    x = C.parse(args.point)
    f = separate_from_lower(C, A, x)
    report = verify_separating(C, f, A, x, samples=args.samples, seed=args.seed)
    _emit({"function": separating_to_dict(f), "verification": report.as_dict()})
    return 0 if report.all_ok() else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once, since parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="chaintop",
        description="Exact order theory and topology on finite posets and decidable chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poset = sub.add_parser("poset", help="poset file operations")
    poset_sub = p_poset.add_subparsers(dest="action", required=True)
    for action in ("check", "classify", "maxchains"):
        sp = poset_sub.add_parser(action)
        sp.add_argument("file")
        sp.set_defaults(func=_cmd_poset)
    sp = poset_sub.add_parser("query", help="pointwise order queries")
    sp.add_argument("file")
    sp.add_argument("op", choices=("cone", "bounds", "extremum", "dmclosure", "directed"))
    sp.add_argument("--set", default="", help="comma-separated element indices")
    sp.add_argument("--dir", default="down", choices=("down", "up", "strict-down", "strict-up"))
    sp.add_argument("--side", default="upper", choices=("upper", "lower"))
    sp.add_argument("--kind", default="sup", choices=("sup", "inf"))
    sp.set_defaults(func=_cmd_poset_query)
    sp = poset_sub.add_parser("cutstable")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--image", required=True, help="comma-separated target indices")
    sp.set_defaults(func=_cmd_poset_cutstable)

    p_topo = sub.add_parser("topo", help="topology construction and checks")
    topo_sub = p_topo.add_subparsers(dest="action", required=True)
    sp = topo_sub.add_parser("make")
    sp.add_argument("poset")
    sp.add_argument("name", choices=CANONICAL_NAMES)
    sp.set_defaults(func=_cmd_topo)
    sp = topo_sub.add_parser("join")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(func=_cmd_topo)
    sp = topo_sub.add_parser("equal")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(func=_cmd_topo)
    sp = topo_sub.add_parser("report")
    sp.add_argument("poset")
    sp.add_argument("name", choices=CANONICAL_NAMES)
    sp.set_defaults(func=_cmd_topo)

    sp = sub.add_parser("waybelow", help="way-below queries")
    sp.add_argument("x")
    sp.add_argument("y")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--poset", help="poset file; way-below on a finite poset is the order")
    source.add_argument("--chain", help="catalog chain spec, e.g. rat01")
    sp.add_argument("--www", action="store_true", help="way-way-below (arbitrary subsets)")
    sp.set_defaults(func=_cmd_waybelow)

    p_suite = sub.add_parser("suite", help="theorem suite")
    suite_sub = p_suite.add_subparsers(dest="action", required=True)
    sp = suite_sub.add_parser("run")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--min-n", type=int, default=1)
    sp.add_argument("--max-n", type=int, default=7)
    sp.add_argument("--chains", default="", help="comma-separated catalog ids")
    sp.add_argument("--claims", default="", help=f"comma-separated from {','.join(CLAIM_IDS)}")
    sp.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        choices=FAULT_KERNELS,
        help="corrupt a kernel to demonstrate suite sensitivity",
    )
    sp.add_argument("--json", action="store_true", help="suppress the stderr table")
    sp.set_defaults(func=_cmd_suite)

    sp = sub.add_parser("search", help="counterexample search over random posets")
    sp.add_argument("target", choices=SEARCH_TARGETS)
    sp.add_argument("--min-n", type=int, default=3)
    sp.add_argument("--max-n", type=int, default=6)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-instances", type=int, default=2000)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("decompose", help="order-convex decomposition")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--chain", help="catalog chain spec")
    source.add_argument("--poset", help="poset file (finite case)")
    sp.add_argument("--intervals", default="", help='interval list, e.g. "[1,3],[4,6]"')
    sp.add_argument("--name", default="intrinsic", choices=CANONICAL_NAMES)
    sp.add_argument("--set", default="", help="open set as comma-separated indices")
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("separate", help="monotone separating function")
    sp.add_argument("--chain", required=True)
    sp.add_argument("--lower", required=True, help='closed lower set, e.g. "(-inf,1/2]"')
    sp.add_argument("--point", required=True)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_separate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChainTopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
