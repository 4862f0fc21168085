import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import isodense

MODULES = ["isodense"] + [f"isodense.{m.name}" for m in pkgutil.iter_modules(isodense.__path__)
                          if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_importing_the_cli_loads_no_optional_scientific_package():
    # scipy, mpmath and sympy may be installed alongside, but numpy is the only dependency
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, isodense.cli; "
             "print(sorted({m.partition('.')[0] for m in sys.modules}"
             " & {'scipy', 'mpmath', 'sympy'}))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
