"""The scalar kernels module and the backend name."""

import math

import pytest

import nlgamma
from nlgamma import specfun
from nlgamma._backend import kernels


def test_backend_reports_name():
    assert nlgamma.backend_name() == "python"
    assert nlgamma.BACKEND == "python"


@pytest.mark.parametrize(
    "fn,args",
    [
        ("ln_gamma", (0.0,)),
        ("ln_gamma", (-1.0,)),
        ("digamma", (0.0,)),
        ("hurwitz_zeta", (1.0, 1.0)),
        ("hurwitz_zeta", (2.0, 0.0)),
        ("upper_incomplete_gamma_int", (-1, 1.0)),
        ("digamma", (-1.0,)),
        ("ei_defect", (0.0,)),
        # NaN fails every check, and infinity every one but ln_gamma's
        # and digamma's, which return inf
        ("ln_gamma", (math.nan,)),
        ("digamma", (math.nan,)),
        ("polygamma", (0, math.nan)),
        ("upper_incomplete_gamma_int", (3, math.nan)),
        ("ei_defect", (math.nan,)),
        ("trunc_exp_factor", (3, math.nan)),
        ("upper_incomplete_gamma_int", (3, math.inf)),
        ("ei_defect", (math.inf,)),
        ("trunc_exp_factor", (3, math.inf)),
        ("hurwitz_zeta", (math.nan, 2.0)),
        ("riemann_zeta", (math.nan,)),
        ("hurwitz_zeta", (math.inf, 2.0)),
        ("hurwitz_zeta", (2.0, math.inf)),
        ("hurwitz_zeta", (2.0, math.nan)),
        ("riemann_zeta", (math.inf,)),
        ("polygamma", (2, math.inf)),
        # orders: a non-int (2.0 included) or a negative one, refused at
        # the entry point before math.factorial or a cached plan sees it
        ("trunc_exp_factor", (2.5, 1.0)),
        ("trunc_exp_factor", (2.0, 1.0)),
        ("trunc_exp_factor", (-1, 1.0)),
        ("upper_incomplete_gamma_int", (2.5, 1.0)),
        ("upper_incomplete_gamma_int", (2.0, 1.0)),
        ("laplace_tail_weight", (2.5, 1.0, 50.0)),
        ("laplace_tail_weight", (-1, 1.0, 50.0)),
        ("laplace_panel", (2.0, 1.0, [0.5])),
        ("polygamma", (1.5, 2.0)),
        ("polygamma", (2.0, 2.0)),
        ("polygamma", (-1, math.inf)),
    ],
)
def test_kernel_domain_errors(fn, args):
    with pytest.raises(ValueError):
        getattr(kernels if hasattr(kernels, fn) else specfun, fn)(*args)


def test_polygamma_names_itself():
    # not hurwitz_zeta, which it calls for order >= 1
    with pytest.raises(ValueError, match="^polygamma: need 0 < x < inf, got inf$"):
        specfun.polygamma(2, math.inf)


@pytest.mark.parametrize("fn", [kernels.ln_gamma, kernels.digamma])
def test_infinite_argument_gives_infinity(fn):
    assert fn(math.inf) == math.inf


def test_pure_backend_self_contained():
    # the kernels need nothing beyond the standard library
    assert kernels.ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert kernels.hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    # the Taylor branch reads the generated zeta table in _ddconsts
    half_ln_pi = 0.5 * math.log(math.pi)
    assert kernels.ln_gamma(1.5) == pytest.approx(half_ln_pi - math.log(2.0), rel=1e-14)
