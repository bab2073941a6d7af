"""Identity-check records and the serializable verification report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def fmt17(x):
    """Fixed 17-significant-digit rendering (round-trip safe, deterministic)."""
    return format(float(x), ".17g")


@dataclass
class IdentityResidual:
    """One checked identity: both sides, their gap, and the verdict.

    `scale` is the factor `build` multiplied the stated tolerance by, so
    `rejudge` can apply another tolerance the same way.  It is None on
    records made by hand and on bounds that are not rounding tolerances
    (signs, inequalities, truncation gaps); those keep their own.

    `converged` is False when a quadrature behind a side did not
    converge; such a check fails under any tolerance.
    """

    identity: str
    point: dict
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool
    scale: float | None = None
    converged: bool = True

    def __post_init__(self):
        self.passed = self.passed and self.converged

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


@dataclass
class VerificationReport:
    """Ordered identity checks plus summary counts; JSON-serializable."""

    suite: str
    checks: list = field(default_factory=list)
    wall_time_ms: int = 0

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
