"""Cross-version golden for the scenario JSON format: the document that
``save_scenario`` writes for each named scenario must match the recorded
digest byte for byte, so a renamed, reordered or re-derived key is caught.

The file in ``tests/data`` was written by ``record()`` below. Re-record
only when a change to the scenario format is intended, and say so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from leodcb.scenario import default_scenario, desk_scenario, micro_scenario, scenario_to_dict

GOLDEN = Path(__file__).parent / "data" / "golden_scenario_json.json"
SCENARIOS = {
    "micro": micro_scenario,
    "desk_42": lambda: desk_scenario(42),
    "default_42": lambda: default_scenario(42),
}


def document_digest(build) -> str:
    text = json.dumps(scenario_to_dict(build()), indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def record():
    """Rewrite the golden file from the current code."""
    GOLDEN.write_text(json.dumps(
        {name: document_digest(build) for name, build in SCENARIOS.items()}, indent=1
    ) + "\n")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_json_matches_recorded_digest(name):
    assert document_digest(SCENARIOS[name]) == json.loads(GOLDEN.read_text())[name]
