"""Identity-check records and the serializable verification report.

json is imported only when a report is written, so that importing the
package (and every `eval`, `table` or `verify` without `--json`) does
not load it.
"""

from __future__ import annotations


def fmt17(x):
    """Fixed 17-significant-digit rendering (round-trip safe, deterministic)."""
    return format(float(x), ".17g")


class Record:
    """A plain record: __eq__ and a dataclass-format __repr__ over the
    field names in __match_args__, in order.  Unhashable, as __eq__ is
    defined.  A subclass writes its own __init__."""

    __slots__ = ()
    __match_args__ = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class IdentityResidual(Record):
    """One checked identity: both sides, their gap, and the verdict.

    `scale` is the factor `build` multiplied the stated tolerance by, so
    `rejudge` can apply another tolerance the same way.  It is None on
    records made by hand and on bounds that are not rounding tolerances
    (signs, inequalities, truncation gaps); those keep their own.

    `converged` is False when a quadrature behind a side did not
    converge; such a check fails under any tolerance.
    """

    __match_args__ = (
        "identity", "point", "lhs", "rhs", "residual", "tolerance", "passed",
        "scale", "converged",
    )

    def __init__(
        self, identity, point, lhs, rhs, residual, tolerance, passed,
        scale=None, converged=True,
    ):
        self.identity = identity
        self.point = point
        self.lhs = lhs
        self.rhs = rhs
        self.residual = residual
        self.tolerance = tolerance
        self.passed = passed and converged
        self.scale = scale
        self.converged = converged

    @classmethod
    def build(cls, identity, point, lhs, rhs, tolerance, relative_to=None, converged=True):
        """Pass/fail on |lhs - rhs| <= tolerance * scale, and converged.

        With relative_to=None the comparison is absolute (scale 1);
        otherwise scale is max(|lhs|, |rhs|, relative_to).
        """
        scale = 1.0
        if relative_to is not None:
            scale = max(abs(lhs), abs(rhs), relative_to)
        r = cls(identity, dict(point), lhs, rhs, lhs - rhs, 0.0, False, scale, converged)
        r.rejudge(tolerance)
        return r

    def rejudge(self, tol):
        """Re-judge in place against tol * scale; no-op without a scale."""
        if self.scale is not None:
            self.tolerance = tol * self.scale
            self.passed = self.converged and abs(self.residual) <= self.tolerance

    def to_dict(self):
        return {
            "identity": self.identity,
            "point": self.point,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "converged": self.converged,
        }

    def render(self):
        tag = "PASS" if self.passed else "FAIL"
        pt = ",".join(f"{k}={v}" for k, v in self.point.items())
        return (
            f"{tag} {self.identity} [{pt}] lhs={fmt17(self.lhs)} "
            f"rhs={fmt17(self.rhs)} residual={fmt17(self.residual)} "
            f"tol={fmt17(self.tolerance)}"
        ) + ("" if self.converged else " unconverged")


class VerificationReport(Record):
    """Ordered identity checks plus summary counts; JSON-serializable."""

    __match_args__ = ("suite", "checks", "wall_time_ms")

    def __init__(self, suite, checks=None, wall_time_ms=0):
        self.suite = suite
        self.checks = [] if checks is None else checks
        self.wall_time_ms = wall_time_ms

    @property
    def n_pass(self):
        return sum(1 for c in self.checks if c.passed)

    @property
    def n_fail(self):
        return sum(1 for c in self.checks if not c.passed)

    def add(self, check):
        self.checks.append(check)

    def to_dict(self):
        return {
            "suite": self.suite,
            "checks": [c.to_dict() for c in self.checks],
            "n_pass": self.n_pass,
            "n_fail": self.n_fail,
            "wall_time_ms": self.wall_time_ms,
        }

    def to_json(self):
        """The report as one line of JSON: without `indent`, json.dumps
        runs its C encoder (pipe through `python -m json.tool` to read)."""
        import json  # here, so that `import nlgamma` does not load it

        return json.dumps(self.to_dict())

    def write_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def render_lines(self):
        """Deterministic text rendering (timing deliberately excluded)."""
        lines = [c.render() for c in self.checks]
        lines.append(
            f"suite={self.suite} checks={len(self.checks)} "
            f"n_pass={self.n_pass} n_fail={self.n_fail}"
        )
        return lines
