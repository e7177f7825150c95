"""The four workloads: set-up, timed operations and output checks.

Each workload's `setup(seed, reference)` imports `pointless`, builds the
fields and curves its operations need and returns the operations in the
order the seed gives.  Only `Op.run` is timed.  `Op.check` runs after the
pass and returns (checks made, failure messages).  README.md gives the
reason for each workload.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass

import recount


@dataclass
class Op:
    label: str
    run: object        # () -> output; the timed call
    check: object      # output -> (checks made, [failure message, ...])
    work: int          # units of work, in the workload's unit


def _shuffled(ops, seed):
    """Issue order: the caches in `pointless` (embeddings, square sets,
    dlog tables) are process-wide, so order changes who pays for them."""
    random.Random(seed).shuffle(ops)
    return ops


def _canonical(items):
    return sorted(json.dumps(x, sort_keys=True) for x in items)


# ---------------------------------------------------------------------------
# verify-corpus: `pointless verify --depth 2` over the 65 shipped rows
# ---------------------------------------------------------------------------

VERIFY_ARGV = ["verify", "--depth", "2"]


def check_verify(output, expected):
    """One check per shipped row: it passed and its counts match the
    reference counts."""
    rc, stdout = output
    try:
        rows = {r["id"]: r for r in json.loads(stdout)["entries"]}
    except (ValueError, KeyError, TypeError):
        return len(expected), [f"verify printed no report (exit {rc})"]
    failures = []
    for row_id, counts in expected.items():
        row = rows.get(row_id)
        if row is None:
            failures.append(f"{row_id}: missing")
        elif row["verdict"] != "pass" or row["counts"] != counts:
            failures.append(f"{row_id}: {row['verdict']} {row['counts']} "
                            f"!= reference {counts}")
    if rc != 0 and not failures:
        failures.append(f"verify exited {rc} with every row passing")
    return len(expected), failures


def setup_verify_corpus(seed, reference):
    from pointless import cli
    from pointless.harness import load_fixtures
    load_fixtures()
    expected = reference["verify_depth2_counts"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(VERIFY_ARGV)
        return rc, out.getvalue()

    # the corpus is fixed: the seed has nothing to vary here
    return [Op("verify --depth 2", run,
               lambda output: check_verify(output, expected), len(expected))]


# ---------------------------------------------------------------------------
# census: criterion 4a and the klein4_hyper_odd census over F_23, n = 1
# ---------------------------------------------------------------------------

def check_census(report, expected):
    failures = []
    if _canonical(report.survivors) != _canonical(expected["survivors"]):
        failures.append(f"{len(report.survivors)} survivors, expected "
                        f"{len(expected['survivors'])}")
    reps = expected.get("reps")
    if reps is not None and report.parameters.get("reps") != reps:
        failures.append(f"{report.parameters.get('reps')} (E,Q) pairs, "
                        f"expected {reps}")
    return 1, ["; ".join(failures)] if failures else []


def setup_census(seed, reference):
    from pointless.elliptic import EllipticCurve
    from pointless.field import FiniteField
    from pointless.search import census, search_double_covers_elliptic
    expected = reference["census"]
    F27 = FiniteField(3, 3, [1, -1, 0, 1])
    F23 = FiniteField(23)
    ops = []
    for label, a6 in (("4a:a6=1", F27.one), ("4a:a6=a", F27.element("a"))):
        E = EllipticCurve(F27, F27.element(2), F27.zero, a6)
        ops.append(Op(
            label,
            lambda E=E: search_double_covers_elliptic(E, genus_target=3,
                                                      mode="census"),
            lambda r, e=expected[label]: check_census(r, e),
            expected[label]["size"]))
    label = "klein4_hyper_odd@23,n=1"
    ops.append(Op(label, lambda: census(F23, "klein4_hyper_odd", n=1),
                  lambda r, e=expected[label]: check_census(r, e),
                  expected[label]["size"]))
    return _shuffled(ops, seed)


# ---------------------------------------------------------------------------
# first-find: the criterion-6 CI plan plus one exhaustive genus-3 query
# ---------------------------------------------------------------------------

FIRST_FIND_PLAN = [
    ("klein4_hyper_odd", (3, 5, 7, 9, 11, 13), {"n": 1}),
    ("diagonal_quartic", (5, 7, 9, 11, 13), {}),
    ("quartic_char2", (2, 4, 8, 16), {}),
    ("fiberproduct", (3, 5, 7, 9, 11, 13), {}),
    ("hyper_genus4_char2", (2, 4, 8), {}),
    ("exhaustive_hyper_genus3", (13,), {}),
]
# defining polynomials of the non-prime fields, as in the acceptance tests
MODULI = {4: (2, [1, 1, 1]), 8: (2, [1, 1, 0, 1]), 9: (3, [-1, -1, 1]),
          16: (2, [1, 1, 0, 0, 1])}
GENUS = {"klein4_hyper_odd": 3, "exhaustive_hyper_genus3": 3,
         "diagonal_quartic": 3, "quartic_char2": 3, "fiberproduct": 4,
         "hyper_genus4_char2": 4}


def _char2_quartic(beta, gamma, one):
    """(x^2+xz)^2 + beta (x^2+xz)(y^2+yz) + (y^2+yz)^2 + gamma z^4,
    expanded in characteristic 2."""
    return {(4, 0, 0): one, (2, 0, 2): one, (0, 4, 0): one, (0, 2, 2): one,
            (0, 0, 4): gamma, (2, 2, 0): beta, (2, 1, 1): beta,
            (1, 2, 1): beta, (1, 1, 2): beta}


def rebuild(F, family, answer):
    """The answer of a first_find query as a public curve model."""
    from pointless.curves import (ArtinSchreierCurve, FiberProductGenus4,
                                  HyperellipticOdd, PlaneQuartic)
    from pointless.field import Poly, RationalFunction

    def poly(ints):
        return Poly(F, [F.from_index(i) for i in ints])

    if family == "klein4_hyper_odd":
        return HyperellipticOdd(F, poly(answer["model"]))
    if family == "exhaustive_hyper_genus3":
        return HyperellipticOdd(F, poly(answer["f"]))
    if family == "diagonal_quartic":
        a, b, c, d, e, f = (F.from_index(i) for i in answer["coeffs"])
        return PlaneQuartic(F, {(4, 0, 0): a, (0, 4, 0): b, (0, 0, 4): c,
                                (2, 2, 0): d, (2, 0, 2): e, (0, 2, 2): f})
    if family == "quartic_char2":
        return PlaneQuartic(F, _char2_quartic(F.from_index(answer["beta"]),
                                              F.from_index(answer["gamma"]),
                                              F.one))
    if family == "fiberproduct":
        return FiberProductGenus4(F, poly(answer["f"]), poly(answer["g"]))
    if family == "hyper_genus4_char2":
        m = poly(answer["m"])
        num = poly(answer["g"]) + m * F.from_index(answer["t"])
        return ArtinSchreierCurve(F, RationalFunction(num, m))
    raise ValueError(f"no rebuild rule for {family}")


def check_first_find(F, family, report):
    """The first answer, rebuilt, is a smooth pointless curve of the
    family's genus.  Which answer comes first is not checked."""
    from pointless.errors import PointlessError
    if not report.survivors:
        return 1, [f"{family}@{F.q}: no answer"]
    try:
        curve = rebuild(F, family, report.survivors[0])
        problems = []
        if curve.genus != GENUS[family]:
            problems.append(f"genus {curve.genus}")
        if family in ("diagonal_quartic", "quartic_char2") \
                and not curve.is_smooth():
            problems.append("singular")
        n1 = curve.count(1)
        if n1 != 0:
            problems.append(f"N1 = {n1}")
    except PointlessError as exc:
        problems = [f"rebuild failed: {exc}"]
    return 1, [f"{family}@{F.q}: {'; '.join(problems)}"] if problems else []


def field_for(q):
    from pointless.field import FiniteField
    if q in MODULI:
        p, modulus = MODULI[q]
        return FiniteField(p, len(modulus) - 1, modulus)
    return FiniteField(q)


def setup_first_find(seed, reference):
    from pointless.search import first_find
    ops = []
    for family, qs, kw in FIRST_FIND_PLAN:
        for q in qs:
            F = field_for(q)
            ops.append(Op(
                f"{family}@{q}",
                lambda F=F, family=family, kw=kw: first_find(F, family, **kw),
                lambda r, F=F, family=family: check_first_find(F, family, r),
                1))
    return _shuffled(ops, seed)


# ---------------------------------------------------------------------------
# montecarlo: criterion 9's family and fields
# ---------------------------------------------------------------------------

MC_SAMPLES = 4000
MC_FIELDS = (5, 7, 9)


def stream_seed(seed, q):
    """Seed 0 gives criterion 9's stream seeds (seed = q)."""
    return q if seed == 0 else seed * 1000 + q


def check_montecarlo(report, q, stream, expected):
    """The hit count equals an independent recount of every sample and,
    at seed 0, the reference (`expected` is None at other seeds)."""
    failures = []
    p, modulus = MODULI.get(q, (q, None))
    hits = recount.pointless_hits(p, modulus, report.samples, stream)
    if report.pointless != hits:
        failures.append(f"q={report.q}: {report.pointless} pointless, "
                        f"independent recount {hits}")
    if expected is not None and report.pointless != expected:
        failures.append(f"q={report.q}: {report.pointless} pointless, "
                        f"reference {expected}")
    if report.samples != MC_SAMPLES:
        failures.append(f"q={report.q}: {report.samples} samples")
    return 1, ["; ".join(failures)] if failures else []


def setup_montecarlo(seed, reference):
    from pointless.density import montecarlo_pointless_rate
    ops = []
    for q in MC_FIELDS:
        F = field_for(q)
        stream = stream_seed(seed, q)
        expected = reference["montecarlo_default_hits"][str(q)] \
            if seed == 0 else None
        ops.append(Op(
            f"klein4_hyper_odd@{q}",
            lambda F=F, s=stream: montecarlo_pointless_rate(
                "klein4_hyper_odd", F, MC_SAMPLES, seed=s),
            lambda r, q=q, s=stream, e=expected: check_montecarlo(r, q, s, e),
            MC_SAMPLES))
    return _shuffled(ops, seed)


WORKLOADS = {
    "verify-corpus": setup_verify_corpus,
    "census": setup_census,
    "first-find": setup_first_find,
    "montecarlo": setup_montecarlo,
}
