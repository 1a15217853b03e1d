"""Golden digests: served results of a fixed request set are pinned.

Four corpus strata (one NL goal each, so the derive stage runs) are served
at 6 episodes on a fresh engine.  Each normalised payload — the result
without its per-stage ``seconds`` and ``cache_stats``, which depend on
timing and on what ran before — is digested field by field and compared
with ``golden_digests.json``, recorded under the current
:data:`~repro.engine.RESULT_SEMANTICS_VERSION`.  A change that alters what
a request evaluates to must bump that version and re-record the file::

    PYTHONPATH=src python tests/test_golden_digests.py > tests/golden_digests.json

A mismatch names the first differing request and payload field, as
``<request_id>.<field>``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.bench.generator import generate_benchmark
from repro.engine import RESULT_SEMANTICS_VERSION, ExploreRequest, LinxEngine
from harness import comparable, first_difference

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

#: (dataset, meta-goal) strata served: every dataset, sessions of 4 to 11
#: operations.
STRATA = (("flights", 1), ("netflix", 3), ("playstore", 5), ("netflix", 8))
EPISODES = 6
NUM_ROWS = 300
SEED = 11


def golden_requests() -> list[ExploreRequest]:
    first: dict[tuple[str, int], object] = {}
    for instance in generate_benchmark().instances:
        first.setdefault((instance.dataset, instance.meta_goal_id), instance)
    return [
        ExploreRequest(
            goal=first[stratum].goal,
            dataset=stratum[0],
            num_rows=NUM_ROWS,
            episodes=EPISODES,
            seed=SEED,
            request_id=f"golden-{stratum[0]}-{stratum[1]}",
        )
        for stratum in STRATA
    ]


def field_digests(payload: dict) -> dict[str, str]:
    """One short digest per top-level field of the normalised payload."""
    return {
        name: hashlib.blake2b(
            json.dumps(value, sort_keys=True).encode("utf-8"), digest_size=8
        ).hexdigest()
        for name, value in sorted(comparable(payload).items())
    }


def served_digests() -> dict:
    engine = LinxEngine()
    try:
        results = {
            request.request_id: field_digests(engine.explore(request).to_dict())
            for request in golden_requests()
        }
    finally:
        engine.close()
    return {"result_semantics_version": RESULT_SEMANTICS_VERSION, "results": results}


def test_served_payloads_match_golden_digests():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["result_semantics_version"] == RESULT_SEMANTICS_VERSION, (
        "RESULT_SEMANTICS_VERSION changed: re-record tests/golden_digests.json"
    )
    divergence = first_difference(golden["results"], served_digests()["results"])
    assert divergence is None, (
        f"served payload differs from its golden digest at {divergence}; a change "
        "in result semantics must bump RESULT_SEMANTICS_VERSION"
    )


if __name__ == "__main__":
    print(json.dumps(served_digests(), indent=2, sort_keys=True))
