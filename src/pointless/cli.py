"""Command-line front end.

Subcommands: verify, count, zeta, bounds, search, density, montecarlo.
All machine output is JSON on stdout; diagnostics go to stderr.  Exit
codes: 0 success, 1 verification/search-expectation failure, 2 usage error.
"""

import argparse
import json
import re
import sys

from .density import DensityProblem, compute_density, montecarlo_pointless_rate
from .errors import PointlessError
from .field import FiniteField, _prime_factors, canonical_extension
from .harness import load_fixtures, verify
from .search import ENGINE_FAMILIES, SearchConfig, run_search
from .zeta import pointless_q_range, zeta_report


def _int_list(text):
    try:
        return [int(c) for c in text.split(",") if c.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, "
                                         f"got {text!r}")


def _prime_power(q):
    """(p, n) with q = p^n; ValueError when q is not a prime power."""
    factors = _prime_factors(q)
    if len(set(factors)) != 1:
        raise ValueError(f"{q} is not a prime power")
    return factors[0], len(factors)


def _field_for(q, def_poly=None):
    """F_q with the given defining polynomial, or canonical_extension's
    (the smallest monic irreducible in index order) when none is given.
    FiniteField refuses a defining polynomial for a prime field, so a
    given one is never dropped."""
    p, n = _prime_power(q)
    if def_poly is not None:
        return FiniteField(p, n, def_poly)
    return canonical_extension(p, n)


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _check_depth(depth):
    if depth < 1:
        raise ValueError(f"--depth must be at least 1, got {depth}")


def _entries(args):
    """The fixture entries that --fixtures and --id select.  A --depth
    below 1 is refused here; one that asks a count for a field past
    MAX_FIELD_ORDER is refused by that count, with ExtensionTooLarge,
    before the field's tables are built."""
    _check_depth(args.depth)
    entries = load_fixtures(args.fixtures)
    if args.id is not None:
        entries = [e for e in entries if e.id == args.id]
        if not entries:
            raise PointlessError(f"no fixture entry named {args.id!r}")
    return entries


def _cmd_verify(args):
    report = verify(_entries(args), K=args.depth)
    _emit(report.to_json())
    return report.exit_status


def _cmd_count(args):
    rows = []
    for e in _entries(args):
        curve = e.curve()
        rows.append({
            "id": e.id,
            "kind": e.kind,
            "q": e.p ** e.n,
            "genus": curve.genus,
            "counts": [curve.count(i) for i in range(1, args.depth + 1)],
        })
    _emit({"entries": rows})
    return 0


def _cmd_zeta(args):
    _prime_power(args.q)   # refuses a q that is no prime power
    if args.depth is not None:
        _check_depth(args.depth)
    report = zeta_report(args.q, args.genus, args.counts, depth=args.depth)
    _emit(report.to_json())
    return 0


def _cmd_bounds(args):
    _emit(pointless_q_range(args.genus, args.bound))
    return 0


def _cmd_search(args):
    F = _field_for(args.q, args.def_poly)
    mode = "first_find" if args.mode == "first" else "census"
    config = SearchConfig(family=args.family, mode=mode, n=args.n,
                          budget=args.budget)
    report = run_search(F, config)
    _emit(report.to_json())
    if args.expect_survivors is not None:
        if len(report.survivors) != args.expect_survivors:
            print(f"expected {args.expect_survivors} survivors, "
                  f"found {len(report.survivors)}", file=sys.stderr)
            return 1
    return 0


def _cmd_density(args):
    # generators are split at the commas outside parentheses, so a cycle
    # may separate its points by commas as well as spaces
    gens = re.split(r",(?![^(]*\))", args.gens)
    problem = DensityProblem(degree=args.degree, generators=tuple(gens))
    result = compute_density(problem)
    _emit(result.to_json())
    return 0


def _cmd_montecarlo(args):
    F = _field_for(args.q, args.def_poly)
    report = montecarlo_pointless_rate(args.family, F, args.samples,
                                       seed=args.seed)
    _emit(report.to_json())
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="pointless",
        description="Construct, verify, search for, and rule out pointless "
                    "curves of genus 3 and 4 over small finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="replay the claims of a fixture file")
    p.add_argument("--fixtures",
                   help="fixture file path (default: shipped tables)")
    p.add_argument("--id", help="verify a single entry by id")
    p.add_argument("--depth", type=int, default=1,
                   help="check point counts over F_{q^i} for i <= DEPTH")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="point counts for fixture entries")
    p.add_argument("--fixtures",
                   help="fixture file path (default: shipped tables)")
    p.add_argument("--id", help="count a single entry by id")
    p.add_argument("--depth", type=int, default=1)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("zeta", help="zeta data from extension point counts")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--counts", type=_int_list, required=True,
                   help="comma-separated N_1,...,N_g")
    p.add_argument("--depth", type=int, default=None,
                   help="predict counts up to this extension degree")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("bounds",
                       help="largest prime power admitting a pointless curve")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--bound", choices=("weil", "serre"), required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("search", help="run a search engine")
    p.add_argument("family", choices=ENGINE_FAMILIES)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--def-poly", type=_int_list, default=None,
                   help="defining polynomial c0,c1,... for extension fields")
    p.add_argument("--n", type=int, default=None,
                   help="twist parameter for klein4_hyper_odd, as an element "
                        "index in 0..q-1 (default 1)")
    p.add_argument("--mode", choices=("first", "census"), default="first")
    p.add_argument("--budget", type=int, default=None,
                   help="candidate cap; exceeding it is an error")
    p.add_argument("--expect-survivors", type=int, default=None,
                   help="exit 1 unless the survivor count matches")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("density",
                       help="fixed-point density of a permutation group")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--gens", required=True,
                   help='generators in cycle notation, e.g. "(1 2 3),(1 2)"')
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("montecarlo",
                       help="sampled pointlessness rate vs. the heuristic")
    p.add_argument("--family", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--def-poly", type=_int_list, default=None)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_montecarlo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PointlessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
