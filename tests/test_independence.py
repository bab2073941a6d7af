"""Route independence, traced: which kernel-layer functions each route
reaches, pinned as a sharing map.

The routes cross-check one another only where they do not share the
code under test.  sys.setprofile records every top-level function of
the kernel layers (`_backend.kernels`, `_ddarith`, `hyp2f1`, `quad`) that
a route calls, at any depth, on a grid of m and x covering the four
regions the benchmark draws from.  Every cache in those modules, and
the per-m rows in `delta` (CLOSED's, which holds zeta plans, and
LAPLACE's moment table, built by quadrature), is cleared before each
call, so a table builder shows up whichever route asks for it
first.  A change that makes two routes share a function must
edit SHARED below, so the new sharing shows in its diff.
"""

import inspect
import sys

import pytest

from nlgamma import _ddarith, hyp2f1, quad
from nlgamma._backend import kernels
from nlgamma.delta import Route, _closed_row, _laplace_row, delta_deriv

MODULES = {"kernels": kernels, "_ddarith": _ddarith, "hyp2f1": hyp2f1, "quad": quad}
# region of the benchmark: (x, ...); 0: |x| < 0.125, 1: the seam band
# 0.125 <= |x| <= 0.26, 2: (-1, -0.26], 3: (0.26, 1e6]
REGIONS = {
    0: (-0.05, 1e-4),
    1: (-0.2, 0.15),
    2: (-0.97, -0.4),
    3: (0.5, 300.0),
}
MS = (1, 2, 12)

# every function reached by more than one route: the routes that reach it
SHARED = {
    "_ddarith._bracket": {"CLOSED", "RECURRENCE"},
    "_ddarith._table": {"CLOSED", "RECURRENCE"},
    "_ddarith._weight": {"CLOSED", "RECURRENCE"},
    "_ddarith.closed_product_rule_dd": {"CLOSED", "RECURRENCE"},
    "kernels._geometric_limit": {"CLOSED", "LAPLACE", "RECURRENCE"},  # sizes, no value
    "kernels._stirling_lgam": {"CLOSED", "RECURRENCE"},
    "kernels._zeta_plan": {"CLOSED", "HURWITZ", "RECURRENCE"},
    "kernels._zeta_taylor": {"CLOSED", "HURWITZ", "RECURRENCE"},
    "kernels._zeta_values": {"CLOSED", "HURWITZ", "RECURRENCE"},
    "kernels.digamma": {"CLOSED", "HYP", "RECURRENCE"},
    "kernels.ln_gamma": {"CLOSED", "RECURRENCE"},
    "kernels.ln_gamma_taylor": {"CLOSED", "RECURRENCE"},
    "quad._panel": {"HURWITZ", "HYP", "LAPLACE"},
    "quad.graded_breaks": {"HYP", "LAPLACE"},
    "quad.integrate_finite": {"HURWITZ", "HYP", "LAPLACE"},
}


def _tracked():
    """(code object -> "module.name", caches) over the modules' own
    top-level functions, lru_cache wrappers unwrapped."""
    codes, caches = {}, []
    for short, module in MODULES.items():
        for name, obj in vars(module).items():
            fn = inspect.unwrap(obj) if callable(obj) else None
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                codes[fn.__code__] = f"{short}.{name}"
                if hasattr(obj, "cache_clear"):
                    caches.append(obj)
    return codes, caches


def _reached(call):
    """The tracked names call() reaches, or None if it raised ValueError
    (the route does not apply there)."""
    codes, caches = _tracked()
    for cache in (*caches, _closed_row, _laplace_row):
        cache.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen.add(codes[frame.f_code])

    sys.setprofile(profile)
    try:
        call()
    except ValueError:
        return None
    finally:
        sys.setprofile(None)
    return seen


@pytest.fixture(scope="module")
def reach():
    """{(route name, region): names reached there}, for the routes that
    apply at every grid point of the region."""
    out = {}
    for route in Route:
        ms = MS[1:] if route is Route.RECURRENCE else MS  # it starts at m = 2
        for region, xs in REGIONS.items():
            traces = [_reached(lambda: delta_deriv(m, x, route)) for x in xs for m in ms]
            if None not in traces:
                out[route.value, region] = set().union(*traces)
    return out


def test_sharing_map_is_pinned(reach):
    routes = {}
    for (route, _), names in reach.items():
        for name in names:
            routes.setdefault(name, set()).add(route)
    shared = {name: r for name, r in routes.items() if len(r) > 1}
    assert shared == SHARED


def test_every_shared_function_is_avoided_in_every_region(reach):
    for region in REGIONS:
        applicable = [r.value for r in Route if (r.value, region) in reach]
        for name in SHARED:
            avoiders = [r for r in applicable if name not in reach[r, region]]
            assert avoiders, (name, region, applicable)


def test_regions_have_the_expected_routes(reach):
    # LAPLACE needs x >= 0, SERIES |x| <= 0.26
    assert {r for r, region in reach if region == 2} == {
        "CLOSED", "HURWITZ", "HYP", "RECURRENCE",
    }
    assert ("SERIES", 3) not in reach and ("SERIES", 0) in reach


def test_hyp_sawtooth_never_reaches_the_zeta_kernel(reach):
    # on (-1, -0.26] HYP is the only applicable route that avoids it
    zeta = {
        "kernels.hurwitz_zeta", "kernels._zeta_values", "kernels._zeta_plan",
        "kernels._zeta_taylor",
    }
    for region in REGIONS:
        assert not zeta & reach["HYP", region], region
    avoiders = {r for r, region in reach if region == 2 and not zeta & reach[r, region]}
    assert avoiders == {"HYP"}
    # the sawtooth alone reaches no kernel at all, not even p1
    for x in (-0.97, 0.15, 300.0):
        got = _reached(lambda: quad.p1_integral(((1.0, 1.0), (x + 1.0, 13.0))))
        assert not {n for n in got if n.startswith("kernels.")}, (x, got)
        assert "quad._sawtooth_tail" in got
