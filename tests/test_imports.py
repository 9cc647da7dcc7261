"""The library runs on numpy alone: importing every qcflow module loads no scipy.

scipy stays a test-only oracle.  The same probe resolves every name that
the package and each module list in `__all__`, so a stale export fails
here.  Run this file directly (`python tests/test_imports.py`) where
pytest is not installed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, pkgutil, sys
import qcflow
names = [m.name for m in pkgutil.iter_modules(qcflow.__path__)]
for module in [qcflow] + [importlib.import_module("qcflow." + name) for name in names]:
    for export in getattr(module, "__all__", []):
        getattr(module, export)
print(" ".join(names))
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_qcflow_modules_load_no_scipy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    modules, scipy_modules = out.stdout.split("\n")[:2]
    assert "covering" in modules.split() and "cli" in modules.split()
    assert scipy_modules == ""


if __name__ == "__main__":
    test_qcflow_modules_load_no_scipy()
    print("qcflow imports without scipy")
