"""Spans and counters recorded from outside the program.

`instrument` swaps the module attributes that callers look up at call
time for recording wrappers, and puts the originals back on exit.  Spans
(id, name, start, end, parent, op) stay in memory; self time is a span's
duration minus the time its child spans cover.  Kernels are only counted:
timing each call would swamp them, so their cost per call comes from
`kernel_micro_run` instead.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

ROUTES = ("CLOSED", "SERIES", "HURWITZ", "LAPLACE", "HYP", "RECURRENCE")
SUITES = (
    "routes",
    "recurrence",
    "prop2",
    "prop4",
    "appendix",
    "asymptotic",
    "halfint",
    "specfun",
)
KERNELS = (
    "ln_gamma",
    "digamma",
    "hurwitz_zeta",
    "hz_route_integrand",
    "laplace_integrand",
    "p1",
)
QUAD_FNS = ("integrate_finite", "p1_integral", "integrate_unit_split")
PANEL_EVALS = 22  # evaluations of one GL15 + GL7 panel in quad._panel


class Recorder:
    """In-memory spans, per-name aggregates and kernel call counts."""

    def __init__(self, keep_spans=True):
        self.spans = [] if keep_spans else None
        self.stack = []
        self.next_id = 0
        self.op = -1
        self.self_s = {}
        self.durations = {}
        self.n_evals = {}
        self.nonconverged = {}
        self.kept_panels = 0.0
        self.evaluated_panels = 0.0
        self.checks = {}
        self.kernel_calls = dict.fromkeys(KERNELS, 0)

    def enter(self, name):
        frame = [self.next_id, name, perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def leave(self, frame):
        end = perf_counter()
        self.stack.pop()
        span_id, name, start, child_s = frame
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_s
        self.durations.setdefault(name, []).append(dur)
        if self.spans is not None:
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else -1, self.op)
            )

    def note_quad(self, name, res):
        self.n_evals[name] = self.n_evals.get(name, 0) + res.n_evals
        if not res.converged:
            self.nonconverged[name] = self.nonconverged.get(name, 0) + 1
        if name == "quad.integrate_finite" and res.n_evals:
            # each split evaluates two new panels and retires one
            splits = (res.n_evals - PANEL_EVALS) / (2 * PANEL_EVALS)
            self.kept_panels += 1.0 + splits
            self.evaluated_panels += 1.0 + 2.0 * splits

    def note_route(self, name, res):
        self.n_evals[name] = self.n_evals.get(name, 0) + res.n_evals

    def note_suite(self, name, rep):
        self.checks[name] = self.checks.get(name, 0) + len(rep.checks)

    def counters(self):
        """Everything that must repeat exactly for the same inputs."""
        return {
            "calls": {name: len(d) for name, d in self.durations.items()},
            "n_evals": dict(self.n_evals),
            "nonconverged": dict(self.nonconverged),
            "checks": dict(self.checks),
            "kernel_calls": dict(self.kernel_calls),
        }

    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]:.9f},{s[3]:.9f},{s[4]},{s[5]}\n")


def _spanned(rec, name, fn, note=None):
    def wrapper(*args, **kwargs):
        frame = rec.enter(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            rec.leave(frame)
        if note is not None:
            note(name, res)
        return res

    return wrapper


def _counted(rec, name, fn):
    calls = rec.kernel_calls

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


class _KernelProxy:
    """Stands in for delta's `kernels` module: counted kernels, everything
    else passed through.  Calls the kernels make to each other stay
    inside the real module and are not counted."""

    def __init__(self, module, wrapped):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextmanager
def instrument(rec):
    """Install recording wrappers around every layer for the duration."""
    # by module path: the package re-exports a function named `delta`
    _ddarith, cli, delta, hyp2f1, quad, report, verify = (
        importlib.import_module(f"nlgamma.{name}")
        for name in ("_ddarith", "cli", "delta", "hyp2f1", "quad", "report", "verify")
    )
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_item(mapping, key, value):
        saved.append((mapping, key, mapping[key]))
        mapping[key] = value

    kernels = delta.kernels
    patch(
        delta,
        "kernels",
        _KernelProxy(
            kernels,
            {k: _counted(rec, k, getattr(kernels, k)) for k in KERNELS if k != "p1"},
        ),
    )
    patch(quad, "p1", _counted(rec, "p1", quad.p1))
    for fn in QUAD_FNS:
        patch(quad, fn, _spanned(rec, f"quad.{fn}", getattr(quad, fn), rec.note_quad))
    for fn in ("gauss_2f1", "hyp_identity_residual"):
        patch(hyp2f1, fn, _spanned(rec, f"hyp2f1.{fn}", getattr(hyp2f1, fn)))
    patch(
        _ddarith,
        "closed_product_rule_dd",
        _spanned(rec, "_ddarith.closed_product_rule_dd", _ddarith.closed_product_rule_dd),
    )
    for route, impl in list(delta._ROUTE_IMPL.items()):
        patch_item(
            delta._ROUTE_IMPL,
            route,
            _spanned(rec, f"delta.{route.value}", impl, rec.note_route),
        )
    for suite, fn in list(verify.SUITES.items()):
        patch_item(
            verify.SUITES, suite, _spanned(rec, f"verify.{suite}", fn, rec.note_suite)
        )
    vr = report.VerificationReport
    patch(vr, "render_lines", _spanned(rec, "report.render", vr.render_lines))
    patch(vr, "write_json", _spanned(rec, "report.write_json", vr.write_json))
    patch(cli, "main", _spanned(rec, "cli.main", cli.main))
    try:
        yield rec
    finally:
        for owner, key, value in reversed(saved):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)


def _median(durations):
    return statistics.median(durations) if durations else 0.0


def layer_metrics(rec, n_ops, speed_factor):
    """Per-layer metric values (without units) from one traced pass, with
    times scaled to the reference speed by `speed_factor`."""
    ms = 1e3 * speed_factor
    out = {}
    for k in KERNELS:
        out[f"kernels.{k}.calls_per_op"] = rec.kernel_calls[k] / n_ops
    name = "_ddarith.closed_product_rule_dd"  # metric names start with a letter
    out["ddarith.closed_product_rule_dd.calls"] = len(rec.durations.get(name, ()))
    out["ddarith.closed_product_rule_dd.self_ms"] = rec.self_s.get(name, 0.0) * ms
    for fn in QUAD_FNS:
        name = f"quad.{fn}"
        out[f"{name}.calls"] = len(rec.durations.get(name, ()))
        out[f"{name}.n_evals"] = rec.n_evals.get(name, 0)
        out[f"{name}.self_ms"] = rec.self_s.get(name, 0.0) * ms
        if fn != "integrate_unit_split":
            out[f"{name}.nonconverged"] = rec.nonconverged.get(name, 0)
    out["quad.integrate_finite.kept_panel_ratio"] = (
        rec.kept_panels / rec.evaluated_panels if rec.evaluated_panels else 0.0
    )
    for fn in ("gauss_2f1", "hyp_identity_residual"):
        name = f"hyp2f1.{fn}"
        out[f"{name}.calls"] = len(rec.durations.get(name, ()))
        out[f"{name}.self_ms"] = rec.self_s.get(name, 0.0) * ms
    for route in ROUTES:
        name = f"delta.{route}"
        out[f"{name}.calls"] = len(rec.durations.get(name, ()))
        out[f"{name}.n_evals"] = rec.n_evals.get(name, 0)
        out[f"{name}.ms_p50"] = _median(rec.durations.get(name, ())) * ms
        out[f"{name}.self_ms"] = rec.self_s.get(name, 0.0) * ms
    for suite in SUITES:
        name = f"verify.{suite}"
        out[f"{name}.ms"] = sum(rec.durations.get(name, ())) * ms
        out[f"{name}.checks"] = rec.checks.get(name, 0)
    out["report.render_ms"] = sum(rec.durations.get("report.render", ())) * ms
    out["report.write_json_ms"] = sum(rec.durations.get("report.write_json", ())) * ms
    out["cli.main.self_ms"] = rec.self_s.get("cli.main", 0.0) * ms
    return out


# Fixed arguments for the isolated kernel timings.
MICRO_ARGS = {
    "ln_gamma": (2.37,),
    "digamma": (3.1,),
    "hurwitz_zeta": (3.3, 1.7),
    "hz_route_integrand": (4, 2.0, 0.37),
    "laplace_integrand": (3, 1.5, 7.5),
    "p1": (12.3,),
}


def kernel_micro_run(kernels, calls=4000, repeat=5):
    """Microseconds per call of each kernel: best of `repeat` timed loops."""
    out = {}
    for name, args in MICRO_ARGS.items():
        fn = getattr(kernels, name)
        best = float("inf")
        for _ in range(repeat):
            t0 = perf_counter()
            for _ in range(calls):
                fn(*args)
            best = min(best, perf_counter() - t0)
        out[f"kernels.{name}.us_per_call"] = best / calls * 1e6
    return out
