"""The library's numeric routes on fixed inputs against the digests recorded in `library_digests.json`.

Under the versions the record was made with, a mismatch fails. Under other
versions a last bit may move legitimately, so each case is skipped with a
reason that names both sets of versions, as in `test_cli_digests.py`.
"""

import json

import pytest

from cli_digests import versions
from library_digests import CASES, RECORD, digest

RECORDED = json.loads(RECORD.read_text(encoding="utf-8"))


def test_the_record_holds_every_case():
    assert list(RECORDED["cases"]) == list(CASES)


@pytest.mark.parametrize("name", list(RECORDED["cases"]))
def test_output_matches_the_record(name):
    if versions() != RECORDED["versions"]:
        pytest.skip(f"digests recorded under {RECORDED['versions']}, running under {versions()}")
    assert digest(name) == RECORDED["cases"][name]
