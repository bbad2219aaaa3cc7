import hashlib
import json
from pathlib import Path

import pytest

from cyclicavg.verify import run_verify

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"
DIGESTS = json.loads(WORKLOADS.read_text())["workloads"]["verify-all"]["verify_digests"]


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_verify_text_matches_recorded_digest(seed):
    # a fixed digest also pins determinism and the float operation order
    text, ok = run_verify("all", seed)
    assert ok
    assert "0 failures" in text
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[str(seed)]


def test_scopes_are_subsets():
    text, ok = run_verify("solid", 11)
    assert ok
    assert "-- solid" in text and "-- polygon" not in text
