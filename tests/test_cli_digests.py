"""The CLI's bytes on fixed commands against the digests recorded in `cli_digests.json`.

Under the versions the record was made with, a mismatch fails. Under other
versions a last bit may move legitimately, so each case is skipped with a
reason that names both sets of versions.
"""

import json

import pytest

from cli_digests import CASES, RECORD, digest, versions

RECORDED = json.loads(RECORD.read_text(encoding="utf-8"))


def test_the_record_holds_every_case_as_written():
    recorded = {name: case["argv"] for name, case in RECORDED["cases"].items()}
    assert recorded == {name: list(argv) for name, argv in CASES.items()}


@pytest.mark.parametrize("name", list(RECORDED["cases"]))
def test_output_matches_the_record(name):
    if versions() != RECORDED["versions"]:
        pytest.skip(f"digests recorded under {RECORDED['versions']}, running under {versions()}")
    assert digest(RECORDED["cases"][name]["argv"]) == RECORDED["cases"][name]
