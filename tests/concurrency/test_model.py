"""X3's closed loop: each (policy, T) point runs on the open-loop engine."""

import pytest

from repro.experiments.scalability import COST, run_point

CAPACITY = 100


class TestPolicyProfile:
    """A point carries the policy's profile, measured by the run itself."""

    def test_profile_policy_measures_real_runs(self, zipf_keys):
        one, eight = (run_point("LRU", CAPACITY, zipf_keys, threads)
                      for threads in (1, 8))
        assert 0 < one.hit_ratio < 1
        # LRU promotes on every hit.
        assert one.promotions_per_request == pytest.approx(one.hit_ratio)
        # A closed loop serves the keys in order at any thread count.
        assert (eight.hit_ratio, eight.promotions_per_request) == (
            one.hit_ratio, one.promotions_per_request)


class TestSimulateScaling:
    """Single points of X3's curve, each a closed loop on the engine."""

    def test_invalid_threads(self, zipf_keys):
        with pytest.raises(ValueError):
            run_point("FIFO", CAPACITY, zipf_keys, threads=0)

    def test_single_thread_throughput_reasonable(self, zipf_keys):
        point = run_point("FIFO", CAPACITY, zipf_keys, threads=1)
        # One thread, no promotions: each request takes its parallel time.
        mean_time = COST.base_cost + (1 - point.hit_ratio) * COST.miss_penalty
        assert point.threads == 1
        assert point.throughput == pytest.approx(1 / mean_time, rel=1e-9)
        assert point.lock_utilisation == 0.0

    def test_lock_free_policy_scales_linearly_at_first(self, zipf_keys):
        by_threads = {t: run_point("FIFO", CAPACITY, zipf_keys, t).throughput
                      for t in (1, 2, 4)}
        assert by_threads[2] == pytest.approx(2 * by_threads[1], rel=0.01)
        assert by_threads[4] == pytest.approx(4 * by_threads[1], rel=0.01)

    def test_locked_policy_saturates(self, zipf_keys):
        point = run_point("LRU", CAPACITY, zipf_keys, threads=32)
        d_lock = point.promotions_per_request * COST.promotion_cost
        assert point.throughput == pytest.approx(1 / d_lock, rel=0.01)
        assert point.lock_utilisation > 0.99

    def test_lock_free_beats_locked_at_scale(self, zipf_keys):
        free = run_point("FIFO", CAPACITY, zipf_keys, threads=32)
        locked = run_point("LRU", CAPACITY, zipf_keys, threads=32)
        assert free.throughput > 3 * locked.throughput

    def test_deterministic(self, zipf_keys):
        assert (run_point("QD-LP-FIFO", CAPACITY, zipf_keys, 4)
                == run_point("QD-LP-FIFO", CAPACITY, zipf_keys, 4))


class TestScalingTable:
    def test_one_curve_per_profile(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        from repro.experiments import scalability
        result = scalability.run(num_objects=200, num_requests=1000,
                                 thread_counts=(1, 4))
        assert list(result.curves) == scalability.POLICIES
        assert all([p.threads for p in points] == [1, 4]
                   for points in result.curves.values())


class TestScalabilityExperiment:
    def test_runs_and_renders(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        from repro.experiments import scalability
        result = scalability.run(num_objects=500, num_requests=5000,
                                 thread_counts=(1, 8))
        assert "X3" in result.render()
        # The paper's shape, even at toy scale.
        assert result.speedup("FIFO", 8) > result.speedup("LRU", 8)
