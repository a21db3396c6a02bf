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


def fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that finds the package in SRC."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    done = fresh_python(f"import {module}")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", ["hopsets.cli", "hopsets"])
def test_import_leaves_dataclasses_and_inspect_unloaded(module):
    # every CLI process pays for its imports; records are NamedTuples and
    # slotted classes, so `dataclasses` (and the `inspect` it loads) stay out
    done = fresh_python(
        f"import sys, {module}\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
