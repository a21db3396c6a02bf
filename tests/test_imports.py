"""Every module of the package imports when it is the first one imported.

In-process tests share one module cache, so once any test has imported the
package, an import cycle that breaks only for a particular first import goes
unseen.  Each module here is imported first in its own fresh interpreter,
one process at a time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ["hopsets"] + sorted(
    f"hopsets.{p.stem}" for p in (SRC / "hopsets").glob("*.py") if p.stem != "__init__"
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
