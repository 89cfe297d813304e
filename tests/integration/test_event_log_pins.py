"""Golden event-log digests: the simulator's event bytes must never drift.

Each digest is the sha256 of a serialized event log, recorded when every
charge and death was still logged as its own event object. They pin what
the simulator records, in what order and with what float bits, so a
change to how the logs are stored must reproduce them exactly:

* the merged event stream (:func:`repro.scenarios.instance_digest`) of
  every registered scenario's first topology;
* :meth:`~repro.sim.metrics.Metrics.event_log_jsonl` of the failure-storm
  determinism run of ``repro check sim``;
* the JSONL spill file, and the ring-bounded in-memory log, of the same
  run with ``max_log_events=64``.
"""

import hashlib

import pytest

from repro.check.simcheck import run_failure_storm
from repro.scenarios import SCENARIOS, instance_digest

#: scenario name -> ``instance_digest(spec, 0)["events"]``.
SCENARIO_EVENTS = {
    "dense-urban": "9f2b2c5d602aa3d361168d254b5e5f893a4f777749250f1dd1022f1bdb2c9786",
    "failure-storm": "b36e405b72a346d621f54bccde3cc40751c15734851f3ccb7ef25b6bb76989a1",
    "heterogeneous-batteries": "4124ccd930b630f06f64ae6e8fce6be66504280d48afdb44500a6e393940e3f5",
    "high-churn": "b7255066f4d7c0e5076f87c3a3b288cb8733ba6445e8ff0a8e68029bbbed094f",
    "request-burst": "6f427044edfd822e1e2a2527f625e7328fab9b2dfa5308ad11ad7d75d802947e",
    "sparse-wide-area": "4640cec1ae1480f1b57a711b6003a39d34139aabc213b05a6cbd0c575b7bf824",
}

#: ``event_log_jsonl()`` of ``run_failure_storm(0)``.
STORM_LOG = "52387ad529994b81fce7dddd890ccc0476c252bbd8c803cd278fe8032a973d60"
#: The spill file of ``run_failure_storm(0, max_log_events=64, ...)``.
STORM_SPILL = "4a403d61fd4d266e1aa27fa2f92af909b0cfe9fe86b796171965c827c42c47e2"
#: ``event_log_jsonl()`` of that bounded run (the kept ring windows).
STORM_RING = "e7baee0056e6520e36d073c22030b215d55c651323735493a24713481beface1"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_scenario_is_pinned():
    assert set(SCENARIO_EVENTS) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIO_EVENTS))
def test_scenario_event_stream_matches_golden(name):
    assert instance_digest(SCENARIOS[name], 0)["events"] == SCENARIO_EVENTS[name]


def test_failure_storm_log_matches_golden():
    log = run_failure_storm(0).metrics.event_log_jsonl()
    assert _sha(log.encode()) == STORM_LOG


def test_bounded_spilled_storm_matches_golden(tmp_path):
    path = tmp_path / "storm.jsonl"
    m = run_failure_storm(0, max_log_events=64, event_spill=path).metrics
    assert _sha(path.read_bytes()) == STORM_SPILL
    assert _sha(m.event_log_jsonl().encode()) == STORM_RING
    # The ring keeps exactly the last 64 charges; the counts stay exact.
    assert (len(m.charges), m.charges.total, m.charges.dropped) == (64, 375, 311)
    assert (len(m.deaths), m.deaths.total, m.deaths.dropped) == (39, 39, 0)
    assert len(path.read_text().splitlines()) == sum(
        getattr(m, name).total for name in
        ("dispatches", "charges", "deaths", "fleet", "churn", "requests"))
