"""Reach of the CLI: every function of the package runs under some command,
or ``ALLOWED_UNRUN`` says why it stays.

``COMMANDS`` is a fixed list of tiny seeded CLI commands: every
subcommand, every format and ``--output``, on U(3), SU(2), SO(3), SO(4)
and SL(2,R) at n <= 6 and at most 20 trials.  A fresh interpreter (this
file run as a script) imports the CLI and runs them in process under
``sys.setprofile``, so what the imports call counts too, and prints the
functions that ran.  A function is a ``def`` in ``src/torsion_orbits``,
named ``module.qualname``; lambdas and comprehensions are left out.

The test fails when a function neither runs nor is allowlisted, and when
an allowlisted name no longer exists.  An allowlisted function that runs
is not a failure: the per-member fallback of ``_invariant_rows`` runs or
not as LAPACK rounds.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "torsion_orbits"

_SPECS = (("U", "3"), ("SU", "2"), ("SO", "3"), ("SO", "4"), ("SL2R", "2"))
_CHECKS = ("lemma31", "lemma32", "lemma33", "zero-intersection", "density")
_FORMATS = ("text", "json", "csv")

#: argv of each traced command; ``{out}`` is a scratch directory.
COMMANDS = (
    [["catalog", "--group", g, "--size", m, "--n", "6", "--format", f]
     for (g, m), f in zip(_SPECS, _FORMATS * 2)]
    + [["catalog", "--group", "SO", "--size", "4", "--n", "5", "--format", f,
        "--output", f"{{out}}/catalog.{f}"] for f in _FORMATS]
    + [["verify", check, "--group", g, "--size", m, "--n", "6",
        "--trials", "20", "--seed", "3", "--format", f]
       for check in _CHECKS for (g, m), f in zip(_SPECS, _FORMATS[:2] * 3)]
    + [["verify", check, "--trials", "5", "--format", "json"]
       for check in _CHECKS]
    + [["verify", "gcd", "--group", g, "--size", m, "--n", "4", "--m", "6",
        "--format", f] for (g, m), f in zip(_SPECS, _FORMATS[:2] * 3)]
    + [["verify", "lemma33", "--group", "SO", "--size", "4", "--trials", "5",
        "--format", "json", "--output", "{out}/verify.json"]]
    + [["census", "cluster", "--group", g, "--size", m, "--n", "6",
        "--samples", "20", "--seed", "3", "--format", f]
       for (g, m), f in zip(_SPECS, _FORMATS[:2] * 3)]
    + [["census", "sl2", "--n", "6", "--samples", "20", "--format", f]
       for f in _FORMATS[:2]]
    + [["demo-surface", "--samples", "50", "--seed", "3", "--format", f]
       for f in _FORMATS]
    + [["demo-surface", "--a", "1.0", "--phi", "0.5", "--format", "csv",
        "--output", "{out}/surface.csv"]]
    # refusals: a bad flag, csv from verify, an unsupported group
    + [["catalog", "--group", "U", "--size", "2", "--n", "0"],
       ["verify", "lemma31", "--trials", "1", "--format", "csv"],
       ["catalog", "--group", "SL2R", "--size", "3", "--n", "4"]])

_PATH = ("the path API, the constructive half of the theorem; kept for "
         "the verify connect check (ROADMAP item 10)")
_VIEW = ("a one-element or Fraction view that the tests build their inputs "
         "with or check the stacked path against")
_PUBLIC = "a group helper decided public (ROADMAP, decided items)"
_FALLBACK = ("the per-member fallback of _invariant_rows: runs only where "
             "the stacked Schur alignment misses the grid, as LAPACK rounds")

#: module.qualname -> why the function stays though no command runs it.
ALLOWED_UNRUN = {
    "curves.CurveSample.__post_init__": _PATH,
    "curves._conjugator_stack": _PATH,
    "curves.connect_within_component": _PATH,
    "curves.path_order_residuals": _PATH,
    "curves.export_path_csv": _PATH,
    "alignment.canonical_align": _PATH,
    "alignment._snapped_alignment": _PATH,
    "groups.cartan_decompose": _PATH,
    "groups.element_order": _PUBLIC,
    "groups.exp_element": _PUBLIC,
    "groups.algebra_coords": _PUBLIC,
    "groups.constraint_residual": _PUBLIC,
    "groups._coords": "the coordinate check of exp_element",
    "groups.AlgebraBasis.__len__": "the size of the public algebra_basis",
    "torsion.canonicalize": _VIEW,
    "torsion.torsion_point": _VIEW,
    "torsion.TorusTorsionPoint.__post_init__": _VIEW,
    "torsion.TorusTorsionPoint.matrix": _VIEW,
    "torsion.orbit_dimension": _VIEW,
    "torsion.class_table": _VIEW,
    "torsion.catalog_components": _VIEW,
    "torsion.CanonicalInvariant.sort_key": "the catalog order of "
                                           "invariants, as a sort key",
    "torsion._scaled": "the Fraction views read their phases through it",
    "torsion._table_invariants": "class_table and catalog_components read "
                                 "their invariants through it",
    "torsion._CatalogBlock.__iter__": "catalog_components reads blocks "
                                      "through it",
    "torsion._CatalogTable.fractions": "catalog_components reads blocks "
                                     "through it",
    "alignment.matrix_invariant": _VIEW,
    "alignment.nearest_torsion_approximant": _VIEW,
    "alignment.orientation_sign": _VIEW,
    "groups.random_element": _VIEW,
    "groups.membership_residual": _VIEW,
    "groups.adjoint_matrix": _VIEW,
    "groups.require_member": _VIEW,
    "groups.require_residual": _VIEW,
    "surface.export_points_csv": _VIEW,
    "reports.strip_wall_time": _VIEW,
    "alignment._sl2_align": _FALLBACK,
    "alignment._off_grid": _FALLBACK,
    "alignment._snap_rows": _FALLBACK,
    "torsion_orbits.__getattr__": "the package's lazy public names (PEP 562)",
    "torsion_orbits.__dir__": "the package's lazy public names (PEP 562)",
}


def _key(path: Path, qualname: str) -> str:
    module = "torsion_orbits" if path.stem == "__init__" else path.stem
    return f"{module}.{qualname}"


def defined_functions() -> set:
    """``module.qualname`` of every def in the package's source files."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if not const.co_name.startswith("<"):
                        found.add(_key(path, const.co_qualname))
    return found


def _trace(out_dir: str) -> list:
    """The functions that importing the CLI and running ``COMMANDS`` call."""
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from torsion_orbits import cli
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main([a.format(out=out_dir) for a in argv])
    finally:
        sys.setprofile(None)
    return sorted({_key(Path(code.co_filename), code.co_qualname)
                   for code in ran
                   if Path(code.co_filename).parent == PACKAGE
                   and not code.co_name.startswith("<")})


def ran_functions(out_dir) -> set:
    proc = subprocess.run([sys.executable, __file__, str(out_dir)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return set(json.loads(proc.stdout))


def test_every_function_runs_under_a_command_or_is_allowlisted(tmp_path):
    defined = defined_functions()
    ran = ran_functions(tmp_path)
    assert ran <= defined
    assert sorted(defined - ran - set(ALLOWED_UNRUN)) == []
    assert sorted(set(ALLOWED_UNRUN) - defined) == []


if __name__ == "__main__":
    print(json.dumps(_trace(sys.argv[1])))
