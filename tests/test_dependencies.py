"""The runtime needs numpy alone: scipy serves only the tests' ILP oracle."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

#: Imports every module of the package with scipy made unimportable.
IMPORT_ALL = """
import importlib
import pkgutil
import sys

sys.modules["scipy"] = None
import repro

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
"""


def test_every_module_imports_without_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_runtime_requirements_list_numpy_alone():
    root = Path(__file__).resolve().parents[1]
    lines = (root / "requirements.txt").read_text().splitlines()
    requirements = [line for line in lines if line.strip() and not line.startswith("#")]
    assert [line.split(">=")[0] for line in requirements] == ["numpy"]
