#!/usr/bin/env python3
"""Print one sha256 of the standard output of each fixed CLI command line.

Every `verify` suite, with and without `--tol 1e-6`, and a fixed set of
`eval`, `table` and `scan` lines are run through `nlgamma.cli.main` in
this process, with stdout captured.  Each output line is

    <sha256 of stdout>  <exit code>  <command line>

where the exit code reads `raised <Exception>` if the command did not
return.  Each `verify` suite and the `scan` line are also run with
`--json REPORT`, REPORT standing for a file in a temporary directory;
those lines end in `report=<sha256>`, the hash of the written report
with its `wall_time_ms` set to 0 (the only field that varies run to
run), so the diff also covers every byte of every JSON report.  Run
from the root of a checkout, once on each of two commits, and diff the
two outputs to see which command lines print differently:

    python tools/stdout_digest.py > digests.txt
"""

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nlgamma import cli, verify  # noqa: E402

COMMANDS = [
    *(f"verify --suite {s}" for s in sorted(verify.SUITES)),
    *(f"verify --suite {s} --tol 1e-6" for s in sorted(verify.SUITES)),
    *(
        f"eval --fn delta --x {x}"
        for x in (
            "-0.999999", "-0.3", "0", "0.13", "0.26", "0.9", "1.5", "2.5", "8", "1e100",
            "1e308",
        )
    ),
    *(
        f"eval --fn deriv --m {m} --x {x} --route {route}"
        for m, x, route in (
            (3, "2.5", "AUTO"),
            (1, "0.05", "AUTO"),
            (12, "0.5", "CLOSED"),
            (10, "0.12562212740494744", "CLOSED"),
            (2, "0.2619", "CLOSED"),
            (6, "-0.2", "RECURRENCE"),
            (5, "0.01", "CLOSED"),
            (12, "1e-25", "CLOSED"),
            (12, "0", "AUTO"),
            (12, "-0.25", "AUTO"),
            (12, "1e24", "CLOSED"),
            (1, "1e160", "CLOSED"),
            (3, "1e100", "AUTO"),
            (12, "1e24", "AUTO"),
            (12, "1e23", "AUTO"),
            (3, "2.5", "HURWITZ"),
            (4, "-0.9", "HURWITZ"),
            (3, "7.0", "LAPLACE"),
            (12, "1e6", "LAPLACE"),
            (1, "1e300", "LAPLACE"),
            (2, "0.5", "HYP"),
            (5, "0.2", "SERIES"),
        )
    ),
    *(
        f"eval --fn deriv --m {m} --x {x} --route {route} --rel-tol 1e-15"
        for m, x, route in ((12, "-0.9", "HURWITZ"), (11, "0.3", "LAPLACE"), (12, "-0.9", "HYP"))
    ),
    "table --fn delta --start -0.9 --stop 2 --count 30",
    "table --fn deriv --m 1 --start 0 --stop 10 --count 11 --routes CLOSED,HURWITZ",
    "table --fn deriv --m 7 --start -0.26 --stop 0.26 --count 27"
    " --routes CLOSED,RECURRENCE,SERIES",
    "table --fn deriv --m 2 --start 1e-3 --stop 1e3 --count 13 --log"
    " --routes CLOSED,LAPLACE,HYP",
    "table --fn delta --start 0.5 --stop 1 --count 2 --routes CLOSED,HURWITZ",
    "table --fn deriv --m 8 --start 1e-6 --stop 1e-6 --count 1",
    "scan --m-max 8 --start -0.9 --stop 100 --count 40",
]

# the path placeholder in a JSON line, replaced by a temporary file
REPORT = "REPORT"

JSON_COMMANDS = [
    *(f"verify --suite {s} --json {REPORT}" for s in sorted(verify.SUITES)),
    f"scan --m-max 8 --start -0.9 --stop 100 --count 40 --json {REPORT}",
]


def digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # a crash is part of what is compared
            code = f"raised {type(exc).__name__}"
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


def report_digest(path):
    """sha256 of the report at path with its wall time set to 0."""
    if not os.path.exists(path):
        return "missing"
    with open(path, encoding="utf-8") as fh:
        text, n = re.subn(r'"wall_time_ms": \d+', '"wall_time_ms": 0', fh.read())
    if n != 1:
        return f"{n} wall_time_ms fields"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main():
    for line in COMMANDS:
        sha, code = digest(line.split())
        print(f"{sha}  {code}  {line}")
    with tempfile.TemporaryDirectory() as tmp:
        for line in JSON_COMMANDS:
            path = os.path.join(tmp, "report.json")
            sha, code = digest([path if a == REPORT else a for a in line.split()])
            print(f"{sha}  {code}  {line}  report={report_digest(path)}")
            if os.path.exists(path):
                os.remove(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
