"""The scalar kernels module and the backend name."""

import math

import pytest

import nlgamma
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
    ],
)
def test_kernel_domain_errors(fn, args):
    with pytest.raises(ValueError):
        getattr(kernels, fn)(*args)


def test_pure_backend_self_contained():
    # the kernels need nothing beyond the standard library
    assert kernels.ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert kernels.hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    # the Taylor branch reads the generated zeta table in _ddconsts
    half_ln_pi = 0.5 * math.log(math.pi)
    assert kernels.ln_gamma(1.5) == pytest.approx(half_ln_pi - math.log(2.0), rel=1e-14)
