"""Which modules an import loads, each in a fresh interpreter, which
module tells the group families apart, and which one touches the garbage
collector.

The exact layer (``torsion``) reads no matrix and must load no scipy and
none of the numeric layers; the package ``__init__`` resolves its public
names on first use, so importing it loads no submodule; ``cli`` imports
every layer up front, so that every command loads the same modules.

Every family fact is decided in ``groups``, in the family's record: no
other module compares a ``.family`` or names a family tag, and a change
to a record reaches the counts and the class table.

Only ``cli.main`` touches the collector: its first call in a process
freezes the heap, and no import of the package does anything to it.
"""

import ast
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from phase_oracles import class_walk
from torsion_orbits import groups, torsion

SRC = Path(__file__).resolve().parents[1] / "src"

#: The modules of the package that ``import torsion_orbits.cli`` loads.
CLI_MODULES = ["torsion_orbits", "torsion_orbits.alignment",
               "torsion_orbits.cli", "torsion_orbits.curves",
               "torsion_orbits.groups", "torsion_orbits.reports",
               "torsion_orbits.subspaces", "torsion_orbits.surface",
               "torsion_orbits.sweeps", "torsion_orbits.torsion"]


def run_fresh(script):
    """The JSON that ``script`` prints as its last stdout line, run in a
    fresh interpreter with the package's source on its path."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=SRC,
                          env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(statement):
    """The sorted names in ``sys.modules`` after ``statement`` runs in a
    fresh interpreter."""
    return run_fresh(f"import json, sys\n{statement}\n"
                     "print(json.dumps(sorted(sys.modules)))")


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


def family_tests(path):
    """The lines of the module at path that compare a ``.family``
    attribute or hold a family tag as a string constant."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        operands = ([node.left, *node.comparators]
                    if isinstance(node, ast.Compare) else [])
        if (any(isinstance(x, ast.Attribute) and x.attr == "family"
                for x in operands)
                or (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value in groups.FAMILIES)):
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize("module", sorted(
    path.name for path in (SRC / "torsion_orbits").glob("*.py")
    if path.name != "groups.py"))
def test_no_module_but_groups_tells_families_apart(module):
    assert family_tests(SRC / "torsion_orbits" / module) == []


def test_the_family_scan_finds_the_family_table():
    # the scan sees the literal tags of FAMILY_RECORDS and GroupSpec's
    # own family comparison
    assert len(family_tests(SRC / "torsion_orbits" / "groups.py")) >= 5


def test_a_record_change_reaches_the_counts_and_the_class_table(
        monkeypatch):
    # SU(3) with U's det_one: no phase-sum constraint, so the counts and
    # the class table become U(3)'s; the oracle, which reads no record,
    # still walks SU(3)'s classes
    spec, n = groups.GroupSpec("SU", 3), 6

    def observed():
        return (torsion.count_components(spec, n),
                [column.tolist() for column in torsion._class_rows(spec, n)])

    before, walk = observed(), list(class_walk(spec, n))
    assert before[0] == len(walk)
    records = groups.FAMILY_RECORDS
    monkeypatch.setitem(records, "SU", dataclasses.replace(
        records["SU"], det_one=records["U"].det_one))
    after = observed()
    assert after[0] != before[0]
    assert after[1] != before[1]
    assert after[0] == torsion.count_components(groups.GroupSpec("U", 3), n)
    assert list(class_walk(spec, n)) == walk


#: The collector's state as a fresh-interpreter script prints it.
GC_STATE = ("[gc.isenabled(), gc.get_freeze_count(), gc.get_threshold(), "
            "len(gc.callbacks)]")


def test_imports_leave_the_collector_alone():
    before, after = run_fresh(
        f"import gc, json\nbefore = {GC_STATE}\n"
        + "".join(f"import {name}\n" for name in CLI_MODULES)
        + f"print(json.dumps([before, {GC_STATE}]))")
    assert after == before
    assert after[:2] == [True, 0]


def test_main_freezes_the_import_heap_once():
    entered, first, later = run_fresh("""
import contextlib, gc, io, json
from torsion_orbits import cli
argv = ["catalog", "--group", "SU", "--size", "3", "--n", "6"]
with contextlib.redirect_stdout(io.StringIO()):
    entered = len(gc.get_objects())
    assert cli.main(argv) == 0
    first = [gc.get_freeze_count(), len(gc.get_objects(2)), gc.isenabled()]
    assert cli.main(argv) == 0
    second = gc.get_freeze_count()
    assert cli.main(["verify", "lemma31", "--trials", "20"]) == 0
print(json.dumps([entered, first, [second, gc.get_freeze_count()]]))
""")
    frozen, generation_2, enabled = first
    # the import heap, about 40,000 objects, went to the permanent
    # generation and out of generation 2, where full collections walk
    assert frozen >= entered > 10_000
    assert generation_2 < entered // 20
    assert enabled
    # later calls freeze nothing more, so their garbage stays collectable;
    # a frozen object that a call frees leaves the count
    second, third = later
    assert second == frozen
    assert third <= frozen


def gc_mentions(path):
    """The lines of the module at path that import or name ``gc``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if ((isinstance(node, ast.Import)
             and any(alias.name == "gc" for alias in node.names))
                or (isinstance(node, ast.ImportFrom) and node.module == "gc")
                or (isinstance(node, ast.Name) and node.id == "gc")):
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize("module", sorted(
    path.name for path in (SRC / "torsion_orbits").glob("*.py")
    if path.name != "cli.py"))
def test_no_module_but_cli_touches_the_collector(module):
    assert gc_mentions(SRC / "torsion_orbits" / module) == []


def test_the_collector_scan_finds_the_freeze_in_cli():
    assert len(gc_mentions(SRC / "torsion_orbits" / "cli.py")) >= 2
