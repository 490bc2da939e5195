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


def test_main_rewrites_only_missing_or_moved_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(catalog_pin, "REFERENCE", tmp_path / "reference.json")
    run = lambda *values: [["r", True, [(f"/{i}", v) for i, v in enumerate(values)]]]
    monkeypatch.setattr(catalog_pin, "snapshot", lambda: {
        "kept": run(1.0, 0.1), "moved": run(2.0)})
    catalog_pin.main()
    first = catalog_pin.REFERENCE.read_bytes()
    catalog_pin.main()
    assert catalog_pin.REFERENCE.read_bytes() == first
    # A drift within the tolerance keeps the pinned number; one beyond it,
    # and a run the file lacks, are written.
    monkeypatch.setattr(catalog_pin, "snapshot", lambda: {
        "kept": run(1.0 + 1e-12, 0.1), "moved": run(2.5), "new": run(3.0)})
    catalog_pin.main()
    assert json.loads(catalog_pin.REFERENCE.read_text()) == {
        "kept": [["r", True, [1.0, 0.1]]], "moved": [["r", True, [2.5]]],
        "new": [["r", True, [3.0]]]}
    assert catalog_pin.REFERENCE.read_bytes().startswith(first[:first.index(b'"moved"')])
