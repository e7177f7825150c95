"""Metric names, units and the derivation of per-layer metrics from spans.

BENCHMARK.json lists the same names; a self-test keeps the two in step.
"""

import statistics

from tracer import outermost, self_times

# (name, unit, better, bound): every workload reports each of these
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("work_per_s", "1/s", "higher", 0.2),
    ("op_p90_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

MODELS = {   # curve class -> the model name used in metric names
    "HyperellipticOdd": "hyperelliptic_odd",
    "ArtinSchreierCurve": "artin_schreier",
    "PlaneQuartic": "plane_quartic",
    "FiberProductGenus4": "fiber_product",
    "ASTower": "as_tower",
}
ENGINES = ("klein4_hyper_odd", "klein4_hyper_even", "diagonal_quartic",
           "quartic_char2", "fiberproduct", "exhaustive_hyper_genus3",
           "hyper_genus4_char2", "double_covers_elliptic")
KERNEL_PROBES = (   # (metric name, field, operation)
    ("field.kernel.mul_per_s.F29", "F29", "mul"),
    ("field.kernel.mul_per_s.F25", "F25", "mul"),
    ("field.kernel.mul_per_s.F15625", "F15625", "mul"),
    ("field.kernel.mul_per_s.F32", "F32", "mul"),
    ("field.kernel.add_per_s.F25", "F25", "add"),
    ("field.kernel.inv_per_s.F25", "F25", "inv"),
    ("field.kernel.is_square_per_s.F25", "F25", "is_square"),
    ("field.kernel.trace_per_s.F32", "F32", "trace"),
)
CALL_COUNTS = {   # metric -> counted callable
    "field.elem_mul_calls": "field.FieldElement.__mul__",
    "field.elem_add_calls": "field.FieldElement.__add__",
    "field.elem_inv_calls": "field.FieldElement.inv",
    "field.is_square_calls": "field.FieldElement.is_square",
    "field.poly_mul_calls": "field.Poly.__mul__",
    "field.poly_divmod_calls": "field.Poly.__divmod__",
}


def _per_layer():
    out = [(name, "1/s", "higher") for name, _, _ in KERNEL_PROBES]
    out += [(name, "count", "lower") for name in CALL_COUNTS]
    out += [("field.embed_s", "s", "lower"),
            ("field.dlog_tables_s", "s", "lower")]
    for model in MODELS.values():
        out += [(f"curves.count_s.{model}", "s", "lower"),
                (f"curves.points.{model}", "count", "higher"),
                (f"curves.points_per_s.{model}", "1/s", "higher")]
    out += [("curves.is_smooth_s", "s", "lower"),
            ("curves.is_smooth_calls", "count", "lower"),
            ("curves.construct_s", "s", "lower"),
            ("curves.tables_s", "s", "lower")]
    for engine in ENGINES:
        out += [(f"search.self_s.{engine}", "s", "lower"),
                (f"search.candidates.{engine}", "count", "lower"),
                (f"search.cand_per_s.{engine}", "1/s", "higher"),
                (f"search.survivors.{engine}", "count", "higher")]
    out += [("search.kill_frac.test1", "fraction", "higher"),
            ("search.kill_frac.test2", "fraction", "higher"),
            ("elliptic.divisor_shape_s", "s", "lower"),
            ("elliptic.divisor_shape_calls", "count", "lower"),
            ("elliptic.cover_count_s", "s", "lower"),
            ("elliptic.setup_s", "s", "lower"),
            ("zeta.report_s", "s", "lower"),
            ("zeta.report_calls", "count", "lower"),
            ("series.poly_at_series_s", "s", "lower"),
            ("series.poly_at_series_calls", "count", "lower"),
            ("density.self_s", "s", "lower"),
            ("density.samples", "count", "higher"),
            ("density.pointless_frac", "fraction", "higher"),
            ("density.accept_frac", "fraction", "higher"),
            ("harness.load_fixtures_s", "s", "lower"),
            ("harness.self_s", "s", "lower"),
            ("cli.self_s", "s", "lower")]
    out += [(f"{layer}.layer_self_s", "s", "lower")
            for layer in ("field", "curves", "search", "zeta", "series",
                          "elliptic")]
    out += [("trace.spans", "count", "lower"),
            ("trace.overhead_frac", "fraction", "lower")]
    return out


PER_LAYER = _per_layer()

# draws the klein4_hyper_odd sampler makes per attempted curve: one
# SplitMix64.below() call for each of the five coefficients of g(x^2)
BELOW_CALLS_PER_DRAW = 5


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace, probe, scale):
    """Per-layer metrics of one traced pass, all but trace.overhead_frac,
    which needs an untraced pass too.  `trace` is Tracer.data(); `probe`
    maps kernel metric names to speed-corrected rates.  The other times
    are multiplied and rates divided by `scale`, the pass's speed
    correction (speed.py)."""
    names, spans = trace["names"], trace["spans"]
    calls, timed, values = trace["calls"], trace["timed"], trace["values"]
    own = self_times(spans)

    def inclusive(wanted):
        return sum(s[4] - s[3] for s in outermost(spans, names, wanted))

    def count_spans(wanted):
        return sum(1 for s in spans if wanted(names[s[2]]))

    def named(*full):
        return lambda n: n in full

    layer_self = {}
    for s in spans:
        layer = names[s[2]].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[s[0]]

    m = {}
    for metric, counted in CALL_COUNTS.items():
        m[metric] = calls.get(counted, 0)
    m["field.embed_s"] = inclusive(named("field.embed"))
    m["field.dlog_tables_s"] = timed.get("field.FiniteField.dlog_tables",
                                         [0, 0.0])[1]
    for cls, model in MODELS.items():
        seconds = inclusive(named(f"curves.{cls}.count"))
        points = values.get(f"curves.points.{cls}", 0)
        m[f"curves.count_s.{model}"] = seconds
        m[f"curves.points.{model}"] = points
        m[f"curves.points_per_s.{model}"] = _ratio(points, seconds)
    m["curves.is_smooth_s"] = inclusive(named("curves.PlaneQuartic.is_smooth"))
    m["curves.is_smooth_calls"] = count_spans(
        named("curves.PlaneQuartic.is_smooth"))
    m["curves.construct_s"] = inclusive(
        named(*(f"curves.{cls}.__init__" for cls in MODELS)))
    m["curves.tables_s"] = inclusive(
        named("curves.square_set", "curves.trace_mask", "curves.as_solver"))
    for engine in ENGINES:
        name = f"search.search_{engine}"
        engine_spans = [s for s in spans if names[s[2]] == name]
        candidates = values.get(f"search.candidates.{engine}", 0)
        m[f"search.self_s.{engine}"] = sum(own[s[0]] for s in engine_spans)
        m[f"search.candidates.{engine}"] = candidates
        m[f"search.cand_per_s.{engine}"] = _ratio(
            candidates, sum(s[4] - s[3] for s in engine_spans))
        m[f"search.survivors.{engine}"] = values.get(
            f"search.survivors.{engine}", 0)
    base = values.get("search.kill_base", 0)
    test1 = values.get("search.kills.test1", 0)
    m["search.kill_frac.test1"] = _ratio(test1, base)
    m["search.kill_frac.test2"] = _ratio(values.get("search.kills.test2", 0),
                                         base - test1)
    m["elliptic.divisor_shape_s"] = inclusive(named("elliptic.divisor_shape"))
    m["elliptic.divisor_shape_calls"] = count_spans(
        named("elliptic.divisor_shape"))
    m["elliptic.cover_count_s"] = inclusive(named("elliptic.cover_count"))
    checks = {"elliptic.divisor_shape", "elliptic.cover_count",
              "elliptic.third_test"}
    m["elliptic.setup_s"] = sum(
        s[4] - s[3]
        for s in outermost(spans, names, lambda n: n.startswith("elliptic."))
        if names[s[2]] not in checks)
    m["zeta.report_s"] = inclusive(named("zeta.zeta_report"))
    m["zeta.report_calls"] = count_spans(named("zeta.zeta_report"))
    m["series.poly_at_series_s"] = inclusive(named("series.poly_at_series"))
    m["series.poly_at_series_calls"] = count_spans(
        named("series.poly_at_series"))
    samples = values.get("density.samples", 0)
    draws = calls.get("density.SplitMix64.below", 0) / BELOW_CALLS_PER_DRAW
    m["density.self_s"] = layer_self.get("density", 0.0)
    m["density.samples"] = samples
    m["density.pointless_frac"] = _ratio(values.get("density.pointless", 0),
                                         samples)
    m["density.accept_frac"] = _ratio(samples, draws)
    m["harness.load_fixtures_s"] = inclusive(named("harness.load_fixtures"))
    m["harness.self_s"] = layer_self.get("harness", 0.0)
    m["cli.self_s"] = layer_self.get("cli", 0.0)
    for layer in ("field", "curves", "search", "zeta", "series", "elliptic"):
        m[f"{layer}.layer_self_s"] = layer_self.get(layer, 0.0)
    m["trace.spans"] = len(spans)
    for name, unit, _ in PER_LAYER:
        if name in m and unit == "s":
            m[name] *= scale
        elif name in m and unit == "1/s":
            m[name] /= scale
    m.update(probe)
    return m


def percentile(values, p):
    """Linear-interpolation percentile, 0 < p < 100."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]
