"""Batch command line: mapping objects through the bijections, running
verification suites, exporting distribution tables, and emitting
generating-function coefficients.

Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 refusal
because an enumeration bound was exceeded.  Output is byte-deterministic
for a fixed invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import checks, genfun
from .bijections import (
    foata,
    foata_inverse,
    foata_of,
    history_to_perm,
    involution_to_path,
    motzkin_to_perm,
    path_to_involution,
    perm_to_history,
)
from .errors import BoundExceededError, InvariantError
from .genfun import ClassSpec, ClusterSpec, cluster_count_gf, distribution_oracle
from .paths import LabeledMotzkinPath, LaguerreHistory, MotzkinWord
from .permutations import SERIES_ORDER_BOUND, Permutation, format_cycles, parse_cycles

GF_FUNCTIONS = {
    "inv_des_fix": genfun.inv_des_fix_gf,
    "weak_valley": genfun.weak_valley_gf,
    "coinv_des": genfun.coinv_des_gf,
    "f123_inv": genfun.f123_inv,
    "f132_inv": genfun.f132_inv,
    "f213_inv": genfun.f213_inv,
    "f231_inv": genfun.f231_inv,
    "f312_inv": genfun.f312_inv,
    "f321_inv": genfun.f321_inv,
    "f312_via_t1t2": genfun.f312_via_t1t2,
    "f213_perm": genfun.f213_perm,
    "f231_perm": genfun.f231_perm,
    "f312_perm": genfun.f312_perm,
    "f321_perm": genfun.f321_perm,
}


def _map_gamma(text: str):
    return perm_to_history(Permutation.parse(text))


def _map_gamma_inv(text: str):
    return history_to_perm(LaguerreHistory.parse(text))


def _map_psi(text: str):
    return involution_to_path(Permutation.parse(text))


def _map_psi_inv(text: str):
    return path_to_involution(LabeledMotzkinPath.parse(text))


def _map_foata(text: str):
    text = text.strip()
    if text.startswith("("):
        return foata(parse_cycles(text))
    return foata_of(Permutation.parse(text))


def _map_foata_inv(text: str) -> str:
    return format_cycles(foata_inverse(Permutation.parse(text)))


def _map_gamma_inv_restricted(text: str):
    return motzkin_to_perm(MotzkinWord(text.strip()))


MAPS = {
    "gamma": _map_gamma,
    "gamma-inv": _map_gamma_inv,
    "psi": _map_psi,
    "psi-inv": _map_psi_inv,
    "foata": _map_foata,
    "foata-inv": _map_foata_inv,
    "gamma-inv-restricted": _map_gamma_inv_restricted,
}


def _cmd_map(args: argparse.Namespace) -> int:
    image = MAPS[args.via](args.object)
    if args.format == "json":
        payload = {"via": args.via, "input": args.object.strip(), "image": str(image)}
        if hasattr(image, "to_json_dict"):
            payload["path"] = image.to_json_dict()
        print(json.dumps(payload))
    else:
        print(image)
    return 0


def _refuse_large_order(order: int | None) -> None:
    if order is not None and order > SERIES_ORDER_BOUND:
        raise BoundExceededError(order, SERIES_ORDER_BOUND, "series")


def _cmd_verify(args: argparse.Namespace) -> int:
    _refuse_large_order(args.order)
    if args.suite == "cluster" and args.factors:
        words = tuple(w.strip() for w in args.factors.split(",") if w.strip())
        failures = checks.check_cluster_family(
            words, order=args.order or 12, nmax=args.nmax or 10
        )
        label = f"cluster {','.join(words)}"
    else:
        runner, defaults = checks.SUITES[args.suite]
        kwargs = dict(defaults)
        if args.nmax is not None and "nmax" in kwargs:
            kwargs["nmax"] = args.nmax
        if args.order is not None and "order" in kwargs:
            kwargs["order"] = args.order
        if args.seed is not None and "seed" in kwargs:
            kwargs["seed"] = args.seed
        if args.random_sets is not None and "random_sets" in kwargs:
            kwargs["random_sets"] = args.random_sets
        failures = runner(**kwargs)
        label = f"{args.suite} {kwargs}"
    if args.format == "json":
        print(json.dumps({"suite": args.suite, "ok": not failures, "failures": failures}))
    else:
        for failure in failures:
            print(f"FAIL: {failure}")
        print(f"verify {label}: {'PASS' if not failures else f'FAIL ({len(failures)})'}")
    return 0 if not failures else 1


def _cmd_table(args: argparse.Namespace) -> int:
    stats = tuple(s.strip() for s in args.stats.split(",") if s.strip())
    table = distribution_oracle(ClassSpec.parse(args.class_spec), stats, args.n, bound=args.bound)
    rows = table.rows()
    if args.format == "json":
        payload = {
            "class": table.class_spec,
            "n": table.n,
            "statistics": list(table.statistics),
            "rows": [{"values": list(k), "count": c} for k, c in rows],
            "total": table.total(),
        }
        print(json.dumps(payload))
    elif args.format == "csv":
        print(",".join(table.statistics) + ",count")
        for key, count in rows:
            print(",".join(str(v) for v in key) + f",{count}")
    else:
        header = " ".join(f"{s:>8}" for s in table.statistics) + f" {'count':>8}"
        print(header)
        for key, count in rows:
            print(" ".join(f"{v:>8}" for v in key) + f" {count:>8}")
        print(f"total {table.total()}")
    return 0


def _cmd_gf(args: argparse.Namespace) -> int:
    _refuse_large_order(args.order)
    if args.name == "cluster":
        if not args.factors:
            raise ValueError("gf --name cluster requires --S with the factor words")
        words = tuple(w.strip() for w in args.factors.split(",") if w.strip())
        series = cluster_count_gf(ClusterSpec(words), args.order)
    elif args.name in GF_FUNCTIONS:
        series = GF_FUNCTIONS[args.name](args.order)
    else:
        raise ValueError(
            f"unknown generating function {args.name!r}; choose from "
            f"{', '.join(sorted(GF_FUNCTIONS))}, cluster"
        )
    if args.eval:
        assignments = {}
        for part in args.eval.split(","):
            name, _, value = part.partition("=")
            assignments[name.strip()] = Fraction(value.strip())
        series = series.evaluate(**assignments)
    if args.format == "json":
        payload = {str(n): series.format_coefficient(n) for n in range(series.ring.order + 1)}
        print(json.dumps(payload))
    else:
        print(str(series))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motzkinperm",
        description="bijections between permutation classes and Motzkin paths, "
        "statistic transport, and exact generating functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="apply one of the bijections to an object")
    p_map.add_argument("--via", required=True, choices=sorted(MAPS))
    p_map.add_argument("object", help="permutation, cycle form, path, or history")
    p_map.add_argument("--format", choices=("text", "json"), default="text")
    p_map.set_defaults(func=_cmd_map)

    p_verify = sub.add_parser("verify", help="run an exhaustive verification suite")
    p_verify.add_argument("suite", choices=sorted(checks.SUITES))
    p_verify.add_argument("--nmax", type=int, default=None)
    p_verify.add_argument("--N", dest="order", type=int, default=None, help="series order")
    p_verify.add_argument("--S", dest="factors", default=None, help="factor words for cluster")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--random-sets", type=int, default=None)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", help="export a statistic distribution table")
    p_table.add_argument("--class", dest="class_spec", required=True)
    p_table.add_argument("--stats", required=True, help="comma-separated statistic names")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--bound", type=int, default=os.environ.get("MOTZKINPERM_BOUND", "12"))
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.set_defaults(func=_cmd_table)

    p_gf = sub.add_parser("gf", help="emit generating-function coefficients")
    p_gf.add_argument("--name", required=True)
    p_gf.add_argument("--N", dest="order", type=int, default=12)
    p_gf.add_argument("--S", dest="factors", default=None, help="factor words for --name cluster")
    p_gf.add_argument("--eval", default=None, help="evaluate variables, e.g. t=1,z=1")
    p_gf.add_argument("--format", choices=("text", "json"), default="json")
    p_gf.set_defaults(func=_cmd_gf)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
