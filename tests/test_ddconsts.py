"""The one zeta/gamma table: the committed file is what the generator
writes, and the double views the package uses are correctly rounded."""

import subprocess
import sys
from pathlib import Path

import pytest

mp = pytest.importorskip("mpmath")

from nlgamma.specfun import CONSTANTS, K_MAX  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def test_generator_reproduces_committed_table():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_ddconsts.py")],
        check=True,
        capture_output=True,
    ).stdout
    assert out == (ROOT / "src" / "nlgamma" / "_ddconsts.py").read_bytes()


def test_views_are_correctly_rounded():
    assert K_MAX == 64
    with mp.workdps(50):
        assert CONSTANTS.euler_gamma == float(mp.euler)
        for k in range(2, K_MAX + 1):
            z = mp.zeta(k)
            assert CONSTANTS.zeta_values[k] == float(z), k
            assert CONSTANTS.zeta_minus_one_values[k] == float(z - 1), k
