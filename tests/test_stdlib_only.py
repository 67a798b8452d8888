"""The runtime is pure standard library: the package imports with no
site-packages on the path (``-S``), so a third-party import outside the
tests (networkx, hypothesis, ...) fails here."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_imports_without_site_packages(tmp_path):
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import interlock, interlock.cli"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
