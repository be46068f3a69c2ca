"""The oracles stay out of the production import graph: importing the
library and its serving surfaces loads nothing from ``repro.testing``
(``make lint-forks`` holds the source to the same rule)."""

from __future__ import annotations

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_production_imports_leave_the_oracles_out():
    code = (
        "import sys\n"
        "import repro, repro.runtime, repro.serve, repro.fleet, repro.sim\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.testing')))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    assert out.strip() == "[]"
