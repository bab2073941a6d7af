"""The names perfbench's tracer patches, and the ones its worker calls,
must exist and sit on the paths it expects: a rename in `quad`,
`_ddarith` or the kernels would otherwise only show up as missing
counters or a crash in `perfbench/run.py --trace 1`."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
tracing = pytest.importorskip("tracing")

import nlgamma  # noqa: E402
from nlgamma._backend import kernels  # noqa: E402
from nlgamma.delta import Route, delta_deriv, frac_rep_prop2  # noqa: E402
from nlgamma.specfun import CONSTANTS, SpecialConstants  # noqa: E402


def test_sawtooth_spans_and_kernel_calls_recorded():
    rec = tracing.Recorder(keep_spans=False)
    with tracing.instrument(rec):
        delta_deriv(2, 0.5, Route.HYP)
        frac_rep_prop2(1, 2)
    assert rec.durations.get("quad.p1_integral")
    assert rec.durations.get("quad.integrate_unit_split")
    assert rec.durations.get("quad.integrate_finite")
    # the tracer still finds quad.p1 to patch, but the sawtooth integrand
    # takes {t} inline, so its p1 counter reads 0
    assert rec.kernel_calls["p1"] == 0
    assert rec.n_evals["quad.integrate_unit_split"] > 0
    # HYP evaluates one 2F1 and takes the other from a contiguous relation
    assert len(rec.durations["hyp2f1.gauss_2f1"]) == 1


def test_double_double_closed_spans_recorded():
    # perfbench's ddarith.closed_product_rule_dd.* counters read these spans
    rec = tracing.Recorder(keep_spans=False)
    with tracing.instrument(rec):
        delta_deriv(3, 0.05, Route.CLOSED)
        delta_deriv(3, 0.5, Route.CLOSED)  # the double kernels: no span
    assert len(rec.durations.get("_ddarith.closed_product_rule_dd", ())) == 1
    assert rec.self_s["_ddarith.closed_product_rule_dd"] > 0.0


def test_names_the_benchmark_reads_outside_instrument():
    # perfbench/worker.py times these directly, next to the traced pass
    micro = tracing.kernel_micro_run(kernels, calls=1, repeat=1)
    assert sorted(micro) == sorted(
        f"kernels.{name}.us_per_call" for name in tracing.MICRO_ARGS
    )
    assert SpecialConstants.build() == CONSTANTS
    assert nlgamma.backend_name() == "python"
