"""Which modules an import loads, each in a fresh interpreter.

The exact layer (``torsion``) reads no matrix and must load no scipy and
none of the numeric layers; the package ``__init__`` resolves its public
names on first use, so importing it loads no submodule; ``cli`` imports
every layer up front, so that every command loads the same modules.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The modules of the package that ``import torsion_orbits.cli`` loads.
CLI_MODULES = ["torsion_orbits", "torsion_orbits.alignment",
               "torsion_orbits.cli", "torsion_orbits.curves",
               "torsion_orbits.groups", "torsion_orbits.reports",
               "torsion_orbits.subspaces", "torsion_orbits.surface",
               "torsion_orbits.sweeps", "torsion_orbits.torsion"]


def loaded_after(statement):
    """The sorted names in ``sys.modules`` after ``statement`` runs in a
    fresh interpreter with the package's source on its path."""
    script = (f"import json, sys\n{statement}\n"
              "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=SRC,
                          env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def package_modules(modules):
    return [m for m in modules if m.split(".")[0] == "torsion_orbits"]


def test_exact_layer_loads_no_scipy_and_no_numeric_layer():
    modules = loaded_after("import torsion_orbits.torsion")
    assert not [m for m in modules if m.split(".")[0] == "scipy"]
    assert package_modules(modules) == [
        "torsion_orbits", "torsion_orbits.groups", "torsion_orbits.reports",
        "torsion_orbits.torsion"]


def test_bare_package_import_loads_no_submodule():
    assert package_modules(loaded_after("import torsion_orbits")) == \
        ["torsion_orbits"]


def test_cli_loads_every_layer_and_scipy():
    modules = loaded_after("import torsion_orbits.cli")
    assert "scipy.linalg" in modules
    assert package_modules(modules) == CLI_MODULES


def test_a_public_name_loads_its_submodule_on_first_use():
    modules = loaded_after("import torsion_orbits\n"
                           "torsion_orbits.count_components")
    assert package_modules(modules) == [
        "torsion_orbits", "torsion_orbits.groups", "torsion_orbits.reports",
        "torsion_orbits.torsion"]


def test_an_unknown_name_raises_attribute_error():
    # ``from torsion_orbits import cli`` relies on this: the import system
    # imports a submodule only after the package's attribute lookup fails
    import torsion_orbits
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        torsion_orbits.no_such_name
    assert package_modules(loaded_after("from torsion_orbits import cli")) \
        == CLI_MODULES
