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
import sys
from fractions import Fraction

from . import checks
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

#: The named series: the dict that ``verify genfun`` calls through.
GF_FUNCTIONS = checks.NAMED_SERIES


def _map_foata(text: str):
    """Foata's map reads a cycle form or an involution's one-line word."""
    if text.startswith("("):
        return foata(parse_cycles(text))
    return foata_of(Permutation.parse(text))


#: Each ``map --via`` verb: the reader of its stripped input, and the map.
MAPS = {
    "gamma": (Permutation.parse, perm_to_history),
    "gamma-inv": (LaguerreHistory.parse, history_to_perm),
    "psi": (Permutation.parse, involution_to_path),
    "psi-inv": (LabeledMotzkinPath.parse, path_to_involution),
    "foata": (str, _map_foata),
    "foata-inv": (Permutation.parse, foata_inverse),
    "gamma-inv-restricted": (MotzkinWord, motzkin_to_perm),
}


def _cmd_map(args: argparse.Namespace) -> int:
    text = args.object.strip()
    read, apply = MAPS[args.via]
    image = apply(read(text))
    if args.via == "foata-inv":  # a cycle form, a plain tuple of tuples
        image = format_cycles(image)
    if args.format == "json":
        payload = {"via": args.via, "input": text, "image": str(image)}
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
    given = {k: getattr(args, k) for k in ("nmax", "order", "seed", "random_sets")}
    for flag, name in (("--nmax", "nmax"), ("--N", "order"), ("--random-sets", "random_sets")):
        if given[name] is not None and given[name] < 0:
            raise ValueError(f"{flag} must be non-negative, got {given[name]}")
    _refuse_large_order(args.order)
    if args.suite == "cluster" and args.factors is not None:
        words = tuple(w.strip() for w in args.factors.split(",") if w.strip())
        kwargs = {k: given[k] for k in ("order", "nmax") if given[k] is not None}
        failures = checks.check_cluster_family(words, **kwargs)
        label = f"cluster {','.join(words)}"
    else:
        # a flag the suite takes is passed, any other flag is ignored
        runner, defaults = checks.SUITES[args.suite]
        kwargs = {k: v if given.get(k) is None else given[k] for k, v in defaults.items()}
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
    table = distribution_oracle(ClassSpec.parse(args.class_spec), stats, args.n)
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


def _parse_eval(text: str) -> dict[str, Fraction]:
    """``name=value,...`` as rationals; a part with no ``=``, no name or
    no value, a repeated name, or a value that is not a rational or has a
    zero denominator is a usage error."""
    assignments = {}
    for part in text.split(","):
        name, equals, value = (s.strip() for s in part.partition("="))
        if not (name and equals and value):
            raise ValueError(f"--eval part {part.strip()!r} is not name=value")
        if name in assignments:
            raise ValueError(f"--eval assigns {name} twice")
        try:
            assignments[name] = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"--eval {name}={value} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"--eval {name}={value} is not a rational") from None
    return assignments


def _cmd_gf(args: argparse.Namespace) -> int:
    _refuse_large_order(args.order)
    assignments = _parse_eval(args.eval) if args.eval else None
    if args.name == "cluster":
        if not args.factors:
            raise ValueError("gf --name cluster requires --S with the factor words")
        series = cluster_count_gf(ClusterSpec.parse(args.factors), args.order)
    elif args.name in GF_FUNCTIONS:
        series = GF_FUNCTIONS[args.name](args.order)
    else:
        raise ValueError(
            f"unknown generating function {args.name!r}; choose from "
            f"{', '.join(sorted(GF_FUNCTIONS))}, cluster"
        )
    if assignments:
        series = series.evaluate(**assignments)
    if args.format == "json":
        print(json.dumps({str(n): text for n, text in enumerate(series.format_coefficients())}))
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
