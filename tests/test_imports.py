"""Importing the package loads numpy only.

Each scipy module is imported inside the one function that needs it, so a
process that samples environments and runs forward solves never pays for
scipy's start-up.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_scipy_modules(code: str) -> str:
    """The sorted scipy modules a fresh interpreter holds after ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = f"{code}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.mark.parametrize("module", ["parahom", "parahom.cli"])
def test_import_loads_no_scipy_module(module):
    assert loaded_scipy_modules(f"import sys, {module}") == "[]"


def test_corrector_and_t_operator_load_no_scipy_module():
    code = ("import sys, numpy as np, parahom as p; "
            "cube = p.PeriodicCube(2, 4); "
            "a = p.CoefficientField(cube, 0.1, np.random.default_rng(0).uniform("
            "1.0, 2.0, (3, 2, 16)), p.EllipticityPair(1.0, 2.0)); "
            "assert p.corrector_solve(a, [0.0, 0.0], 0.1).iterations > 0; "
            "assert p.corrector_solve(a, [0.3, -0.2], 0.1).iterations > 0; "
            "p.t_operator_apply(cube, np.ones((3, 2, 16)), [0.3, 0.0], 0.1, 0.1, 2.0)")
    assert loaded_scipy_modules(code) == "[]"
