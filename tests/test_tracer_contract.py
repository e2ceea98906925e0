"""The benchmark's span tracer reads the analysis layer's result fields.

`benchmarks/spans.py` annotates `hn_norms` spans from `HnNorms.n_max`,
`capped_at` and `nilpotent_at`, and `series_vs_spectral_curve` spans from
`ConvergenceCurve.n_terms`.  A traced default series-validity run pins the
per-layer counters built from them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import zenolab
import zenolab.cli  # noqa: F401  (Instrumented patches every traced module, cli too)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import spans  # noqa: E402


@pytest.fixture(scope="module")
def series_validity_layers():
    rec = spans.Recorder()
    with spans.Instrumented(rec, zenolab):
        rec.begin_op(0)
        zenolab.scenarios.run_scenario("series-validity")
        rec.end_op()
    return spans.per_layer(rec.spans, n_ops=1, sweep_jobs=1)


@pytest.mark.parametrize("metric, expected", [
    # one Gaussian report (16 powers requested) and two bump reports (40
    # each); the ceiling cap stops the bumps after 13 and 11, 40 powers in all
    ("analytic.hn_norms.calls", 3),
    ("analytic.hn_norms.powers_per_request", 40 / 96),
    # one Gaussian curve to depth 40 and two bump curves to depth 60
    ("analytic.series_curve.calls", 3),
    ("analytic.series_curve.terms", 160),
])
def test_traced_series_validity_counters(series_validity_layers, metric, expected):
    assert series_validity_layers[metric] == expected
