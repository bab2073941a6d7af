"""CLI surface: flags, exit codes, determinism, CSV and JSON formats."""

import json
import math
import subprocess
import sys

import pytest

from nlgamma import cli, hyp2f1, quad, verify
from nlgamma.cli import main
from nlgamma.delta import (
    EvalResult,
    Route,
    delta_deriv,
    frac_rep_prop2,
    integral_delta,
    integral_delta_squared,
)
from nlgamma.report import IdentityResidual, VerificationReport, fmt17
from nlgamma.specfun import SpecialConstants

G = 0.5772156649015328606


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEval:
    def test_delta_at_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--fn", "delta", "--x", "0")
        assert rc == 0
        fields = out.strip().split("\t")
        assert len(fields) == 4
        assert float(fields[0]) == pytest.approx(-G, rel=1e-15)

    def test_deriv_at_one(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--fn", "deriv", "--m", "1", "--x", "1")
        assert rc == 0
        value, err, route, n_evals = out.strip().split("\t")
        assert float(value) == pytest.approx(1.0 - G, rel=1e-13)
        assert float(err) >= 0.0
        assert route == "CLOSED"
        assert int(n_evals) > 0

    def test_route_flag(self, capsys):
        rc, out, _ = run_cli(
            capsys, "eval", "--fn", "deriv", "--m", "2", "--x", "1", "--route", "HURWITZ"
        )
        assert rc == 0
        assert out.strip().split("\t")[2] == "HURWITZ"

    def test_nonconverged_exits_1(self, capsys, starved_quad):
        # one split is not enough for the layer at u = 1: the estimate
        # stays at 5e-10 of the value against an allowance of 1e-11
        rc, out, err = run_cli(
            capsys, "eval", "--fn", "deriv", "--m", "12", "--x", "-0.5", "--route", "HURWITZ"
        )
        assert rc == 1
        r = delta_deriv(12, -0.5, Route.HURWITZ)
        assert not r.converged
        row = (fmt17(r.value), fmt17(r.abs_err_est), "HURWITZ", str(r.n_evals))
        assert out == "\t".join(row) + "\n"
        assert "did not converge" in err

    def test_hyp_at_z_rounding_to_one_exits_2(self, capsys):
        rc, out, err = run_cli(
            capsys, "eval", "--fn", "deriv", "--m", "1", "--x", "1e16", "--route", "HYP"
        )
        assert rc == 2
        assert out == ""
        assert "domain error: HYP route" in err

    def test_auto_past_closed_power_range_is_laplace(self, capsys):
        # CLOSED's x^(m+1) overflows here; AUTO once exited 2
        rc, out, err = run_cli(capsys, "eval", "--fn", "deriv", "--m", "3", "--x", "1e100")
        assert rc == 0
        assert err == ""
        r = delta_deriv(3, 1e100, Route.LAPLACE)
        row = (fmt17(r.value), fmt17(r.abs_err_est), "LAPLACE", str(r.n_evals))
        assert out == "\t".join(row) + "\n"

    @pytest.mark.parametrize("m,x", [("2", "5e-324"), ("12", "-5e-324")])
    def test_recurrence_outside_the_double_range_exits_2(self, capsys, m, x):
        # CLOSED answers at these x; RECURRENCE's m/x D^(m-1) overflows
        rc, out, err = run_cli(
            capsys, "eval", "--fn", "deriv", "--m", m, f"--x={x}", "--route", "RECURRENCE"
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: domain error: RECURRENCE")

    def test_domain_error_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "eval", "--fn", "deriv", "--m", "1", "--x", "-2")
        assert rc == 2
        assert out == ""
        assert "domain" in err

    @pytest.mark.parametrize("fn", ["delta", "deriv"])
    def test_infinite_x_exits_2(self, capsys, fn):
        rc, out, err = run_cli(capsys, "eval", "--fn", fn, "--m", "2", "--x", "inf")
        assert rc == 2
        assert out == ""
        assert "domain" in err

    def test_rel_tol_flag(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "eval", "--fn", "deriv", "--m", "1", "--x", "2", "--route", "HURWITZ",
            "--rel-tol", "1e-6",
        )
        assert rc == 0

    def test_rel_tol_leaves_hyp_converged(self, capsys):
        # HYP takes no tolerance: the flag once barred the sawtooth's
        # converged result at 1e-15 of the value and exited 1
        rc, out, err = run_cli(
            capsys,
            "eval", "--fn", "deriv", "--m", "12", "--x", "-0.9", "--route", "HYP",
            "--rel-tol", "1e-15",
        )
        assert rc == 0
        assert err == ""
        assert out.split("\t")[0] == "-3.9560946988215648e+19"

    @pytest.mark.parametrize("rel_tol", ["nan", "inf", "-inf"])
    def test_non_finite_rel_tol_exits_2(self, capsys, rel_tol):
        rc, out, err = run_cli(
            capsys,
            "eval", "--fn", "deriv", "--m", "2", "--x", "1", "--route", "HYP",
            f"--rel-tol={rel_tol}",
        )
        assert rc == 2
        assert out == ""
        assert "--rel-tol" in err

    def test_determinism(self, capsys):
        outs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "eval", "--fn", "deriv", "--m", "3", "--x", "2.5")
            outs.add(out)
        assert len(outs) == 1


class TestVerify:
    def test_unknown_suite_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "--suite", "nosuch")
        assert rc == 2
        assert "unknown suite" in err

    def test_halfint_suite_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "halfint")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[-1].startswith("suite=halfint")
        assert "n_fail=0" in lines[-1]
        assert all(line.startswith("PASS") for line in lines[:-1])

    @pytest.mark.parametrize(
        "suite",
        ["routes", "recurrence", "prop2", "prop4", "appendix", "asymptotic",
         "halfint", "specfun"],
    )
    def test_every_suite_exits_zero(self, capsys, suite):
        rc, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert rc == 0
        assert "n_fail=0" in out.strip().splitlines()[-1]

    @pytest.mark.parametrize(
        "suite",
        ["routes", "recurrence", "prop2", "prop4", "appendix", "asymptotic",
         "halfint", "specfun"],
    )
    def test_every_suite_exits_zero_at_tol_1e_6(self, capsys, suite):
        # asymptotic's ratio_gap_at_1e4 bounds a truncation gap of about
        # 1e-3; rescaled by --tol it once failed at m = 1..4
        rc, out, _ = run_cli(capsys, "verify", "--suite", suite, "--tol", "1e-6")
        assert rc == 0
        assert "n_fail=0" in out.strip().splitlines()[-1]

    def test_json_report_schema(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc, _, _ = run_cli(capsys, "verify", "--suite", "prop4", "--json", str(path))
        assert rc == 0
        doc = json.loads(path.read_text())
        assert set(doc) == {"suite", "checks", "n_pass", "n_fail", "wall_time_ms"}
        assert doc["suite"] == "prop4"
        assert doc["n_pass"] + doc["n_fail"] == len(doc["checks"])
        check = doc["checks"][0]
        assert set(check) == {
            "identity", "point", "lhs", "rhs", "residual", "tolerance", "pass", "converged",
        }
        # shortest-round-trip float serialization
        assert repr(doc["checks"][0]["lhs"]) in json.dumps(doc)

    def test_json_report_is_the_report(self, capsys, tmp_path):
        # written compactly, on one line, with the report's full content
        path = tmp_path / "report.json"
        rc, _, _ = run_cli(capsys, "verify", "--suite", "halfint", "--json", str(path))
        assert rc == 0
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        doc = json.loads(text)
        expected = verify.run_suite("halfint").to_dict()
        doc["wall_time_ms"] = expected["wall_time_ms"] = None
        assert doc == expected

    def test_stdout_has_no_timing(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "prop4")
        assert rc == 0
        assert "wall_time" not in out

    def test_tol_override_can_fail(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "prop4", "--tol", "1e-30")
        assert rc == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("tol", ["inf", "-1", "nan", "0"])
    def test_tol_outside_positive_finite_exits_2(self, capsys, tol):
        # inf once passed every scaled check; -1, nan and 0 failed them
        # and exited 1, the code for a wrong identity
        rc, out, err = run_cli(capsys, "verify", "--suite", "halfint", f"--tol={tol}")
        assert rc == 2
        assert out == ""
        assert "--tol" in err

    def test_tol_rejudges_exactly_the_scaled_checks(self):
        unscaled = set()
        for name in verify.SUITES:
            default = verify.run_suite(name).checks
            rescaled = verify.run_suite(name, tol=1e-6).checks
            assert [(c.identity, c.point, c.lhs, c.rhs, c.residual) for c in default] == [
                (c.identity, c.point, c.lhs, c.rhs, c.residual) for c in rescaled
            ]
            for d, r in zip(default, rescaled):
                assert d.scale == r.scale
                if r.scale is None:
                    unscaled.add(r.identity)
                    assert (r.tolerance, r.passed) == (d.tolerance, d.passed)
                else:
                    assert r.tolerance == 1e-6 * r.scale
                    assert r.passed == (abs(r.residual) <= r.tolerance)
        assert unscaled == {
            "int_delta_sq_positive",
            "cauchy_schwarz",
            "refinement_improves",
            "ratio_gap_at_1e4",
            "ratio_gap_monotone",
            "A6",
        }

    def test_determinism(self, capsys):
        outs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "verify", "--suite", "asymptotic")
            outs.add(out)
        assert len(outs) == 1


# prop4's checks and the quadratures behind each: q and e of
# integral_delta, q2 of integral_delta_squared
PROP4_INPUTS = {
    "int_delta_quad_vs_series": ("q",),
    "int_delta_quad_vs_ei": ("q", "e"),
    "int_delta_series_vs_ei": ("e",),
    "int_delta_sq_quad_vs_series": ("q2",),
    "int_delta_sq_positive": ("q2",),
    "cauchy_schwarz": ("q", "q2"),
}


class TestUnconvergedChecks:
    """With one split per integrate_finite call and the sawtooth's tail
    tried at t = 1 only, a check built on a quadrature that did not
    converge prints FAIL, under its stated tolerance and under --tol 1;
    under --tol 1 every other check passes."""

    @staticmethod
    def _converged(check):
        """Whether every quadrature behind the check converged, from the
        calls the suite makes for it."""
        name, p = check.identity, check.point
        if name.startswith("route_"):
            routes = name.split("_")[1::2]  # route_<A>_vs_<B>
            return all(delta_deriv(p["m"], p["x"], Route[r]).converged for r in routes)
        if name.startswith("deriv_at_zero_"):
            return delta_deriv(p["m"], 0.0, Route[name.split("_")[-1]]).converged
        if name == "frac_rep":
            return all(r.converged for r in frac_rep_prop2(p["m"], p["k"]))
        if name in PROP4_INPUTS:
            (q, _, e), (q2, _) = integral_delta(), integral_delta_squared()
            results = {"q": q, "e": e, "q2": q2}
            return all(results[k].converged for k in PROP4_INPUTS[name])
        if name == "sawtooth_zeta_form":
            return quad.p1_integral(((p["a"], p["s"] + 1.0),)).converged
        if name == "riemann_sawtooth_form":
            return quad.p1_integral(((1.0, 4.0),)).converged
        if name in ("A2", "A4", "A5", "A6", "T26"):
            flags = []
            inner = quad.integrate_finite

            def recorded(*args, **kwargs):
                r = inner(*args, **kwargs)
                flags.append(r.converged)
                return r

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(quad, "integrate_finite", recorded)
                hyp2f1.hyp_identity_residual(name, p["n"], p["x"])
            return all(flags)
        return True

    @pytest.mark.parametrize("suite", ["routes", "prop2", "prop4", "appendix", "specfun"])
    def test_unconverged_check_fails(
        self, capsys, starved_quad, monkeypatch, tmp_path, suite
    ):
        monkeypatch.setattr(quad, "_TAIL_INTERVALS_MAX", 1)
        checks = verify.run_suite(suite).checks
        unconverged = [not self._converged(c) for c in checks]
        assert any(unconverged)
        path = tmp_path / "report.json"
        rc, _, _ = run_cli(capsys, "verify", "--suite", suite, "--json", str(path))
        assert rc == 1
        doc = json.loads(path.read_text())
        assert [c["converged"] for c in doc["checks"]] == [not u for u in unconverged]
        for tol in (("--tol", "1"), ()):
            rc, out, _ = run_cli(capsys, "verify", "--suite", suite, *tol)
            assert rc == 1
            lines = out.splitlines()[:-1]
            assert len(lines) == len(checks)
            for line, starved in zip(lines, unconverged):
                if starved:
                    assert line.startswith("FAIL"), line
                    assert line.endswith(" unconverged"), line
                elif tol:
                    assert line.startswith("PASS"), line


# -1 + 1e-6, the CLOSED seam, D's zero at x = 1, the branch points of
# ln_gamma (arguments 1.5, 2.5, 8) and the same numbers as x, each with
# its neighbouring doubles, the points the old 2.2e-16 |D| estimate
# missed, and 1e100
DELTA_GRID = sorted(
    {
        y
        for x in (-1.0 + 1e-6, -0.3, -0.125, 0.125, 0.13, 0.5, 0.9, 1.0, 1.5, 2.5, 7.0, 8.0)
        for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
    }
    | {1.0 + 1e-9, 1.0 - 1e-12, 1e100}
    # ln Gamma(x + 1) near 1.5 from the expansion around 1 missed the old
    # 12-ulp charge here by up to 1.2x
    | {0.45348443452661674, 0.49240000000000006, 0.4931875}
)


class TestDeltaEstimate:
    @staticmethod
    def _mp_delta(x):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            return float(mp.loggamma(mp.mpf(x) + 1) / mp.mpf(x) if x else -mp.euler)

    @pytest.mark.parametrize("x", DELTA_GRID)
    def test_eval_estimate_bounds_the_error(self, capsys, x):
        rc, out, _ = run_cli(capsys, "eval", "--fn", "delta", f"--x={x!r}")
        assert rc == 0
        value, err, _, _ = out.split("\t")
        assert abs(float(value) - self._mp_delta(x)) <= float(err)

    def test_table_prints_the_eval_estimate(self, capsys):
        start, stop = -0.9, 2.0
        rc, out, _ = run_cli(
            capsys, "table", "--fn", "delta", "--start", repr(start), "--stop", repr(stop),
            "--count", "30",
        )
        assert rc == 0
        for line in out.splitlines()[1:]:
            x, route, value, err = line.split(",")
            _, eval_out, _ = run_cli(capsys, "eval", "--fn", "delta", f"--x={x}")
            assert eval_out.split("\t")[:3] == [value, err, route]
            assert abs(float(value) - self._mp_delta(float(x))) <= float(err)


class TestTable:
    def test_csv_structure_and_pair_agreement(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "table", "--fn", "deriv", "--m", "1",
            "--start", "0", "--stop", "10", "--count", "11",
            "--routes", "CLOSED,HURWITZ",
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "x,route,value,abs_err_est"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 22
        # grid-major, route-minor ordering; CLOSED answers at the removable
        # point x = 0 itself
        assert rows[0][1] == "CLOSED" and rows[1][1] == "HURWITZ"
        assert rows[2][1] == "CLOSED"
        assert float(rows[0][0]) == float(rows[1][0]) == 0.0
        for i in range(0, 22, 2):
            a, b = float(rows[i][2]), float(rows[i + 1][2])
            assert abs(a - b) <= max(1e-8 * max(abs(a), abs(b)), 1e-10)
        # RECURRENCE divides by x, so its column at 0 is served by SERIES
        rc, out, _ = run_cli(
            capsys,
            "table", "--fn", "deriv", "--m", "2",
            "--start", "0", "--stop", "0", "--count", "1", "--routes", "RECURRENCE",
        )
        assert rc == 0
        assert out.splitlines()[1].split(",")[1] == "SERIES"

    def test_single_point(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "table", "--fn", "deriv", "--m", "1",
            "--start", "1", "--stop", "1", "--count", "1",
        )
        assert rc == 0
        value = float(out.splitlines()[1].split(",")[1 + 1])
        assert value == pytest.approx(1.0 - G, rel=1e-12)

    def test_log_grid_needs_positive_start(self, capsys):
        rc, _, err = run_cli(
            capsys,
            "table", "--fn", "deriv", "--m", "1",
            "--start", "0", "--stop", "1", "--count", "3", "--log",
        )
        assert rc == 2
        assert "log spacing" in err

    def test_log_grid_needs_positive_stop(self, capsys):
        rc, out, err = run_cli(
            capsys,
            "table", "--start", "1", "--stop", "0", "--count", "3", "--log",
        )
        assert rc == 2
        assert out == ""
        assert "--stop" in err

    def test_log_grid_values(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "table", "--fn", "delta",
            "--start", "0.01", "--stop", "100", "--count", "5", "--log",
        )
        assert rc == 0
        xs = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert xs[0] == pytest.approx(0.01) and xs[-1] == pytest.approx(100.0)
        ratios = [xs[i + 1] / xs[i] for i in range(4)]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        rc, out, _ = run_cli(
            capsys,
            "table", "--fn", "deriv", "--m", "2",
            "--start", "0.5", "--stop", "1.5", "--count", "3", "--out", str(path),
        )
        assert rc == 0 and out == ""
        text = path.read_text()
        assert text.startswith("x,route,value,abs_err_est\n")
        assert "\r" not in text  # LF endings

    def test_invalid_grid(self, capsys):
        rc, _, _ = run_cli(
            capsys,
            "table", "--fn", "deriv", "--m", "1",
            "--start", "-2", "--stop", "1", "--count", "3",
        )
        assert rc == 2
        rc, _, _ = run_cli(
            capsys,
            "table", "--fn", "deriv", "--m", "1",
            "--start", "0", "--stop", "1", "--count", "0",
        )
        assert rc == 2

    @pytest.mark.parametrize("fn", ["delta", "deriv"])
    def test_infinite_x_exits_2(self, capsys, fn):
        rc, out, err = run_cli(
            capsys,
            "table", "--fn", fn, "--m", "1",
            "--start", "inf", "--stop", "inf", "--count", "1",
        )
        assert rc == 2
        assert out == ""
        assert "domain" in err

    @pytest.mark.parametrize(
        "flag,start,stop",
        [("--stop", "0", "inf"), ("--start", "nan", "1"), ("--stop", "0", "-inf")],
    )
    def test_non_finite_grid_bound_exits_2(self, capsys, flag, start, stop):
        rc, out, err = run_cli(
            capsys,
            "table", "--fn", "deriv", "--m", "1",
            f"--start={start}", f"--stop={stop}", "--count", "3",
        )
        assert rc == 2
        assert out == ""
        assert flag in err

    def test_delta_prints_one_row_per_x(self, capsys):
        # D has one evaluation path, so a list of routes does not repeat it
        rc, out, _ = run_cli(
            capsys,
            "table", "--fn", "delta",
            "--start", "0.5", "--stop", "1", "--count", "2",
            "--routes", "CLOSED,HURWITZ",
        )
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [0.5, 1.0]
        for x, route, value, err in rows:
            _, eval_out, _ = run_cli(capsys, "eval", "--fn", "delta", f"--x={x}")
            assert eval_out.split("\t")[:3] == [value, err, route]

    @pytest.mark.parametrize("x", ["1e-06", "-0.05", "0.2", "3"])
    def test_default_routes_are_auto(self, capsys, x):
        # AUTO is CLOSED at these x, in `table` as in `eval`
        rc, out, _ = run_cli(
            capsys,
            "table", "--fn", "deriv", "--m", "8",
            "--start", x, "--stop", x, "--count", "1",
        )
        assert rc == 0
        (row,) = [line.split(",") for line in out.splitlines()[1:]]
        for flag in ((), ("--routes", "AUTO")):
            _, same, _ = run_cli(
                capsys,
                "table", "--fn", "deriv", "--m", "8",
                "--start", x, "--stop", x, "--count", "1", *flag,
            )
            assert same == out
        _, eval_out, _ = run_cli(
            capsys, "eval", "--fn", "deriv", "--m", "8", f"--x={x}", "--route", "AUTO"
        )
        value, err, route, _ = eval_out.split("\t")
        assert row[1:] == [route, value, err]
        assert route == "CLOSED"

    def test_auto_route_near_zero_is_accurate(self, capsys, mp_deriv):
        rc, out, _ = run_cli(
            capsys,
            "table", "--fn", "deriv", "--m", "8",
            "--start", "1e-6", "--stop", "1e-6", "--count", "1",
        )
        assert rc == 0
        x, route, value, err = out.splitlines()[1].split(",")
        assert route == "CLOSED"
        exact = mp_deriv(8, float(x))
        assert abs(float(value) - exact) <= float(err) <= 1e-12 * abs(exact)

    def test_unknown_route(self, capsys):
        rc, _, err = run_cli(
            capsys,
            "table", "--fn", "deriv", "--m", "1",
            "--start", "0", "--stop", "1", "--count", "2", "--routes", "MAGIC",
        )
        assert rc == 2


class TestScan:
    def test_reference_scan_passes(self, capsys):
        rc, out, _ = run_cli(
            capsys, "scan", "--m-max", "8", "--start", "-0.9", "--stop", "100",
            "--count", "40",
        )
        assert rc == 0
        assert "n_fail=0" in out.splitlines()[-1]

    def test_single_point(self, capsys):
        rc, out, _ = run_cli(
            capsys, "scan", "--m-max", "1", "--start", "0", "--stop", "0", "--count", "1"
        )
        assert rc == 0
        line = out.splitlines()[0]
        assert line.startswith("PASS")
        assert float(line.split("lhs=")[1].split()[0]) == pytest.approx(
            math.pi**2 / 12.0, rel=1e-12
        )

    def test_order_cap_exits_2(self, capsys):
        rc, _, err = run_cli(
            capsys, "scan", "--m-max", "13", "--start", "0", "--stop", "1", "--count", "2"
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flag,start,stop",
        [("--stop", "0", "inf"), ("--start", "-inf", "1"), ("--start", "nan", "1")],
    )
    def test_non_finite_grid_bound_exits_2(self, capsys, flag, start, stop):
        rc, out, err = run_cli(
            capsys, "scan", "--m-max", "2", f"--start={start}", f"--stop={stop}",
            "--count", "3",
        )
        assert rc == 2
        assert out == ""
        assert flag in err

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "scan.json"
        rc, _, _ = run_cli(
            capsys, "scan", "--m-max", "2", "--start", "0", "--stop", "5",
            "--count", "3", "--json", str(path),
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["n_fail"] == 0
        assert len(doc["checks"]) == 6


@pytest.mark.parametrize(
    "args,flag",
    [
        (("verify", "--suite", "halfint"), "--json"),
        (("table", "--m", "2", "--start", "0.5", "--stop", "1.5", "--count", "3"), "--out"),
        (("scan", "--m-max", "2", "--start", "0", "--stop", "5", "--count", "3"), "--json"),
    ],
)
def test_unwritable_output_path_exits_2(capsys, monkeypatch, tmp_path, args, flag):
    # the path is checked before any work: nothing is computed or printed
    def refuse(*args, **kwargs):
        raise AssertionError("work done before the output path was checked")

    for name in ("delta_deriv", "check_complete_monotonicity", "_delta_point"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli.verify, "run_suite", refuse)
    path = tmp_path / "missing" / "report.out"
    rc, out, err = run_cli(capsys, *args, flag, str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not path.exists()


class TestProcessLevel:
    @pytest.mark.parametrize(
        "code", ["import nlgamma; nlgamma.delta_deriv(1, 0.5)", "import nlgamma.cli"]
    )
    def test_import_loads_no_dataclasses_inspect_or_json(self, code):
        # against the modules loaded before the import, which a site .pth
        # may add to
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"{code}\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, cwd="src"
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "nlgamma" in loaded
        assert not loaded & {"dataclasses", "inspect", "json"}

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nlgamma.cli", "eval", "--fn", "delta", "--x", "1"],
            capture_output=True,
            text=True,
            cwd="src",
        )
        assert proc.returncode == 0
        assert float(proc.stdout.split("\t")[0]) == 0.0

    @pytest.mark.parametrize("m,x", [("12", "1e24"), ("1", "1e160")])
    def test_closed_outside_its_power_range_exits_2(self, m, x):
        proc = subprocess.run(
            [
                sys.executable, "-m", "nlgamma.cli", "eval", "--fn", "deriv",
                "--m", m, "--x", x, "--route", "CLOSED",
            ],
            capture_output=True,
            text=True,
            cwd="src",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: domain error: ")
        assert "Traceback" not in proc.stderr

    def test_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nlgamma.cli", "eval", "--fn", "bogus", "--x", "1"],
            capture_output=True,
            text=True,
            cwd="src",
        )
        assert proc.returncode == 2


class TestRecords:
    """The four result records compare and print by field, as dataclasses."""

    RECORDS = [
        (
            lambda: quad.QuadResult(1.5, 1e-15, 21, True),
            "QuadResult(value=1.5, abs_err_est=1e-15, n_evals=21, converged=True)",
        ),
        (
            lambda: EvalResult(1.5, 1e-15, Route.CLOSED, 2),
            "EvalResult(value=1.5, abs_err_est=1e-15, route=<Route.CLOSED: 'CLOSED'>, "
            "n_evals=2, converged=True)",
        ),
        (
            lambda: IdentityResidual("A1", {"x": 1.0}, 1.0, 1.0, 0.0, 0.1, True),
            "IdentityResidual(identity='A1', point={'x': 1.0}, lhs=1.0, rhs=1.0, "
            "residual=0.0, tolerance=0.1, passed=True, scale=None, converged=True)",
        ),
        (
            lambda: VerificationReport("prop2"),
            "VerificationReport(suite='prop2', checks=[], wall_time_ms=0)",
        ),
    ]

    @pytest.mark.parametrize("make,text", RECORDS)
    def test_eq_and_repr_by_field(self, make, text):
        a, b = make(), make()
        assert a == b and not a != b
        assert a != tuple(getattr(a, f) for f in a.__match_args__)
        assert repr(a) == text
        setattr(b, a.__match_args__[0], "other")
        assert a != b
        with pytest.raises(TypeError):
            hash(a)

    def test_special_constants_read_only_and_hashable(self):
        a, b = SpecialConstants.build(), SpecialConstants.build()
        assert a == b and hash(a) == hash(b)
        assert a != tuple(getattr(a, f) for f in a.__match_args__)
        assert repr(SpecialConstants()).startswith("SpecialConstants(euler_gamma=0.57721")
        with pytest.raises(AttributeError):
            a.ln_2 = 0.0
        with pytest.raises(TypeError):
            iter(a)
