"""High-precision reference values of D^(m)(x), cached per workload and seed.

D^(m)(x) = sum_j C(m,j) psi^(m-j-1)(x+1) (-1)^j j! / x^(j+1), with
psi^(-1) = ln Gamma, evaluated in mpmath.  Near x = 0 at large m the
terms cancel catastrophically, so the working precision is raised until
two precisions 20 digits apart agree to 1e-22 relative.  This runs in the
parent process, outside every timed region.
"""

from __future__ import annotations

import json
import math
import os

AGREE_REL = 1e-22
EXTRA_DPS = 20

try:
    import mpmath
except ImportError:  # the benchmark then reports bound misses as unavailable
    mpmath = None


def _leibniz(m, x, dps):
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        if xm == 0:
            return (-1) ** (m - 1) * mpmath.factorial(m) * mpmath.zeta(m + 1) / (m + 1)
        total = mpmath.mpf(0)
        for j in range(m + 1):
            order = m - j - 1
            psi = mpmath.loggamma(xm + 1) if order < 0 else mpmath.psi(order, xm + 1)
            term = mpmath.binomial(m, j) * mpmath.factorial(j) * psi / xm ** (j + 1)
            total += -term if j % 2 else term
        return +total


def reference_value(m, x):
    """D^(m)(x) rounded to double, from two agreeing precisions."""
    lost = (m + 1) * max(0.0, -math.log10(abs(x))) if x else 0.0
    dps = int(25 + lost)
    while True:
        lo = _leibniz(m, x, dps)
        hi = _leibniz(m, x, dps + EXTRA_DPS)
        if abs(lo - hi) <= AGREE_REL * abs(hi):
            return float(hi)
        dps = int(dps * 1.5)


def references(points, cache_path):
    """{(m, x): value} for every point, or None when mpmath is missing."""
    if mpmath is None:
        return None
    cache = {}
    if os.path.exists(cache_path):
        with open(cache_path, encoding="utf-8") as fh:
            cache = {(m, x): v for m, x, v in json.load(fh)}
    missing = sorted({p for p in points if p not in cache})
    for m, x in missing:
        cache[(m, x)] = reference_value(m, x)
    if missing:
        os.makedirs(os.path.dirname(cache_path), exist_ok=True)
        tmp = cache_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump([[m, x, v] for (m, x), v in sorted(cache.items())], fh)
        os.replace(tmp, cache_path)
    return cache
