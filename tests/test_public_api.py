"""The package's public names: every entry of ``__all__`` resolves."""

import torsion_orbits


def test_every_public_name_resolves():
    missing = [name for name in torsion_orbits.__all__
               if not hasattr(torsion_orbits, name)]
    assert missing == []


def test_public_names_are_listed_once():
    names = torsion_orbits.__all__
    assert len(names) == len(set(names))
