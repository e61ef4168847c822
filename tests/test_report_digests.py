"""The benchmark's sweep workloads, run once at the seed their digests were
recorded at: every report matches ``perfbench/digests.json``, so a change
in any report's content fails here, before the benchmark runs."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from case_runner import DIGEST_SEED, DIGESTS, report_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from spechtbranch import modules, verify  # noqa: E402


@pytest.mark.parametrize("workload", ["q-sweep", "modp-sweep"])
def test_workload_reports_match_their_recorded_digests(workload):
    expected = json.loads(DIGESTS.read_text())[workload]
    cases = WORKLOADS[workload]
    assert len(cases) == len(expected)
    modules.clear_module_cache()
    try:
        for case, want in zip(cases, expected):
            reports = case.run(verify, DIGEST_SEED)
            assert all(report.passed for report in reports), case.label
            assert [report_digest(r, DIGEST_SEED) for r in reports] == want, case.label
    finally:
        modules.clear_module_cache()
