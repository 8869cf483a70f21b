import os
import subprocess
import sys
from pathlib import Path

import pytest

import domcover


@pytest.fixture
def run_python():
    """Run a fresh interpreter that imports the domcover under test, not an installed one."""
    src = str(Path(domcover.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
        )

    return run
