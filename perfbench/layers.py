"""Which sobolevkit functions the traced run turns into spans, and the per-layer metrics they give."""

from __future__ import annotations

# Entry points that become spans.  Only functions called once per array,
# per test function or per command: ``expr.evaluate`` runs once per AST
# node per point, and wrapping it took ``evaluate_many`` from 1.0 s to
# 5.9 s, so it stays unwrapped and its time lands in ``evaluate_many``.
TARGETS = (
    ("cli", "main"),
    ("expr", "parse"),
    ("expr", "evaluate_many"),
    ("grid", "quadrature"),
    ("grid", "write_grid_function_csv"),
    ("mollifier", "standard_bump"),
    ("mollifier", "verify_unit"),
    ("convolution", "convolve"),
    ("convolution", "compose"),
    ("weakdiff", "pair"),
    ("weakdiff", "verify_weak_derivative"),
    ("sobolev", "membership_report"),
    ("dynamics", "newton_net"),
    ("dynamics", "invertibility_check"),
    ("dynamics", "exponential_flow"),
    ("dynamics", "distributional_shadow"),
)

# The suite's criteria, reported by total span time as ``acceptance.<criterion>.s``.
CRITERIA = (
    "criterion_mollifier_unit",
    "criterion_approximate_identity",
    "criterion_affine_exactness",
    "criterion_commutation",
    "criterion_weak_verification",
    "criterion_sobolev_norm",
    "criterion_compose",
    "criterion_newton",
    "criterion_invertibility",
    "criterion_flow",
    "criterion_shadow",
    "criterion_parser",
)

# Work counts computed from each call's inputs, with their units.
COUNTS = {
    "convolution.window_madds": "count",
    "convolution.rss_rise_mb": "MB",
    "expr.points_evaluated": "count",
    "expr.node_visits": "count",
    "weakdiff.test_evals": "count",
    "grid.csv_bytes": "bytes",
}

# Measured, not computed: it may differ between runs.
MEASURED_COUNTS = ("convolution.rss_rise_mb",)


def per_layer_metrics() -> list[tuple[str, str]]:
    """``(name, unit)`` of every metric a traced run reports."""
    out = [("import.s", "s")]
    for module, fn in TARGETS:
        out += [(f"{module}.{fn}.self_s", "s"), (f"{module}.{fn}.calls", "count")]
    out += [(f"acceptance.{c}.s", "s") for c in CRITERIA]
    out += list(COUNTS.items())
    out.append(("trace.overhead_s", "s"))
    return out
