"""The pinned catalog runs (``catalog_pin.RUNS``: every default experiment
and 2-D peaks) match their reference (``catalog_pin.py`` writes it): the same
ids and pass flags, and every number within the pin's tolerance."""

import json

import pytest

import catalog_pin


@pytest.fixture(scope="module")
def runs():
    reference = json.loads(catalog_pin.REFERENCE.read_text(encoding="utf-8"))
    return reference, catalog_pin.snapshot()


@pytest.mark.parametrize("name", list(catalog_pin.RUNS))
def test_reports_match_reference(runs, name):
    reference, got = runs
    want = reference[name]
    assert [r[:2] for r in got[name]] == [r[:2] for r in want]
    for (rid, _, nums), (_, _, pinned) in zip(got[name], want):
        assert len(nums) == len(pinned), rid
        for (path, value), ref in zip(nums, pinned):
            assert catalog_pin.close(value, ref), f"{rid}{path}: {value!r} != {ref!r}"
