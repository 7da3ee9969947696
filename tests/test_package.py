"""Package-level properties: the runtime dependency set."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qthermal


@pytest.fixture(scope="module")
def loaded_by_import():
    """``loaded_by_import(package)``: the sorted modules of ``package`` that
    ``import qthermal.cli``, which every command runs and which includes
    ``import qthermal``, loads in a fresh interpreter, as a list's ``str``:
    this process may already hold them.  One interpreter lists every module
    once for all the checks."""
    src = str(Path(qthermal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, qthermal.cli; print(*sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    modules = result.stdout.split()
    return lambda package: str(sorted(m for m in modules if m.split(".")[0] == package))


def test_import_does_not_load_scipy(loaded_by_import):
    assert loaded_by_import("scipy") == "[]"


def test_import_does_not_load_mpmath(loaded_by_import):
    # only the extended-precision references, which no command calls, import it
    assert loaded_by_import("mpmath") == "[]"


def test_import_does_not_load_json(loaded_by_import):
    assert loaded_by_import("json") == "[]"


@pytest.mark.parametrize("package", ["hashlib", "_hashlib", "gzip", "concurrent"])
def test_import_does_not_load_first_use_modules(loaded_by_import, package):
    # OpenSSL (through hashlib), gzip and the thread pool load in the
    # functions that use them: IDX loading, the synthetic digits and
    # advantage_regions
    assert loaded_by_import(package) == "[]"


def test_all_lists_exactly_the_root_names():
    # the import block and ``__all__`` list the same names, once each, so
    # neither list can gain a name the other lacks and every name resolves
    public = [
        name for name, value in vars(qthermal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(qthermal.__all__) == sorted(public)
