"""The mutation table in ``tests/mutants.py`` still matches the tree.

``python tests/mutants.py`` is run by hand and exits 2 when a snippet is
missing or repeated; this keeps a rewritten line from orphaning its mutant
unnoticed in the meantime.
"""

from mutants import MUTANTS, ROOT, orphans


def test_every_snippet_occurs_exactly_once():
    assert orphans() == []


def test_every_named_test_file_exists():
    named = {test.split("::")[0] for m in MUTANTS for test in m.tests}
    assert [path for path in sorted(named) if not (ROOT / path).is_file()] == []
