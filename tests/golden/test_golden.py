"""Every golden case replays through ``main()`` to the bytes it recorded.

The cases, their inputs and the way a run is captured live in
``make_golden.py``, which also regenerates ``expected.json``.
"""

import json

import pytest

from make_golden import CASES, EXPECTED, fresh_inputs, run_case

_EXPECTED = json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_the_corpus_records_every_case_as_written():
    assert sorted(_EXPECTED) == sorted(CASES)
    assert all(_EXPECTED[name]["args"] == args for name, args in CASES.items())


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_golden_case_replays_to_its_recorded_bytes(tmp_path, name):
    want = dict(_EXPECTED[name])
    del want["args"]
    assert run_case(CASES[name], fresh_inputs(tmp_path)) == want
