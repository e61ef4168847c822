"""Self-test of the benchmark's tracer, correctness gate and speed rescaling.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import pytest

from case_runner import import_package, report_digest, run_cases
from run import PROBE_REF_CPU_S, RunError, ref_seconds
from tracer import Tracer, wrapped_names
from workloads import WORKLOADS, Case, sweep_order

verify = import_package()

from spechtbranch import modules  # noqa: E402  (imported from this checkout)
from spechtbranch.fields import GF  # noqa: E402


@pytest.fixture
def cold_caches():
    modules.clear_module_cache()
    yield
    modules.clear_module_cache()


def test_counts_match_a_hand_count(cold_caches):
    with Tracer() as tracer:
        first = verify.verify_min_poly((2, 1), GF(3), "induce")
        second = verify.verify_min_poly((2, 1), GF(3), "induce")
    assert first.passed and second.passed
    m = tracer.layer_metrics()
    assert m["verify.verify_min_poly.calls"] == 2
    # the first call builds the induced module, the second gets it cached
    assert m["modules.build_induction.calls"] == 2
    assert m["modules.build.cache_hits"] == 1
    assert m["modules.build_specht.calls"] == 0
    assert m["modules.GroupActionModule.element_matrix.calls"] == 2
    assert m["exact.minimal_polynomial.calls"] == 2
    assert m["endo.hom_space.calls"] == 0
    # S^(2,1) induced to degree 4 has 4 * 2 = 8 rows, in M^(2,1,1) of width 12
    assert tracer.rows_kept == 8
    assert m["modules.ambient_width_max"] == 12
    assert 0 < m["modules.build_induction.scan_yield"] <= 1

    spans = tracer.spans
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == ["verify.verify_min_poly"] * 2
    builds = [s for s in spans if s[0] == "modules.build_induction"]
    assert all(spans[s[3]][0] == "verify.verify_min_poly" for s in builds)
    scans = [s for s in spans if s[0] == "tabloids.induced_polytabloid"]
    assert all(spans[s[3]][0] == "modules.build_induction" for s in scans)
    # self times partition the root spans' time
    total_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(sum(s[2] - s[1] for s in roots))


def test_every_namespace_is_rebound_and_restored():
    before = (verify.build_induction, modules.build_induction,
              modules.AlgebraElement.apply)
    with Tracer():
        found = set(wrapped_names())
        for namespace in ("spechtbranch", "spechtbranch.modules",
                          "spechtbranch.verify", "spechtbranch.cli"):
            assert (namespace, "build_induction") in found
        assert ("spechtbranch.central", "block_split") in found
        assert ("spechtbranch.endo", "hom_space") in found
        assert ("spechtbranch.modules", "AlgebraElement.apply") in found
    assert wrapped_names() == []
    assert before == (verify.build_induction, modules.build_induction,
                      modules.AlgebraElement.apply)


def test_untraced_run_leaves_package_unwrapped(cold_caches):
    case = Case("sweep", (2, 1), (3,))
    want = [[report_digest(r, 0) for r in case.run(verify, 0)]]
    modules.clear_module_cache()
    result = run_cases(verify, [case], 7, want)
    assert result["failed"] == 0 and result["attempted"] == len(want[0])
    assert wrapped_names() == []


def test_gate_counts_mismatch_and_raise_and_goes_on(cold_caches):
    good = Case("sweep", (2, 1), (3,))
    bad = Case("branching", (2, 1), (4,))  # 4 is not a prime
    n = len(good.run(verify, 0))
    result = run_cases(verify, [bad, good], 0, [["?"], ["?"] * n])
    assert result["attempted"] == 1 + n
    assert result["failed"] == 1 + n
    assert "raised" in result["failures"][0]


def test_sweep_cases_follow_sweep_order():
    assert sweep_order(4) == [(1, 1), (2,), (1, 1, 1), (2, 1), (3,),
                              (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert all(case.kind == "sweep" for case in WORKLOADS["q-sweep"])


def test_ref_seconds_weights_each_stretch_by_probe_speed():
    start = [0.0, 1.0, 2.0, 3.0]
    # the stretch from 1 to 2 runs at half the reference speed
    cpu_s = [PROBE_REF_CPU_S, 2 * PROBE_REF_CPU_S, PROBE_REF_CPU_S, PROBE_REF_CPU_S]
    assert ref_seconds(start, cpu_s, 0.5, 2.5) == pytest.approx(0.5 + 0.5 + 0.5)
    assert ref_seconds(start, cpu_s, 2.0, 3.0) == pytest.approx(1.0)
    with pytest.raises(RunError):
        ref_seconds(start, cpu_s, 2.5, 3.5)  # past the last sample
    with pytest.raises(RunError):
        ref_seconds(start, cpu_s, -1.0, 0.5)  # before the first sample
