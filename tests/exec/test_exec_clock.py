"""The shared Clock abstraction (repro.exec.clock)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.exec import RetryPolicy, Task, run_tasks
from repro.exec.clock import SystemClock, VirtualClock
from repro.exec.faults import FaultPlan


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        assert clock.advance(2.5) == 2.5
        assert clock.now() == 2.5

    def test_sleep_advances_instead_of_blocking(self):
        clock = VirtualClock(start=10.0)
        clock.sleep(5.0)
        assert clock.now() == 15.0

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-1.0)
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)
        with pytest.raises(ValueError):
            clock.sleep(-0.1)

    def test_thread_safe_advances(self):
        clock = VirtualClock()

        def spin():
            for _ in range(1000):
                clock.advance(0.001)

        pool = [threading.Thread(target=spin) for _ in range(4)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert clock.now() == pytest.approx(4.0)


class TestSleepUntil:
    def test_advances_to_the_deadline(self):
        clock = VirtualClock(start=2.0)
        clock.sleep_until(5.0)
        assert clock.now() == 5.0

    def test_past_deadline_is_a_noop(self):
        clock = VirtualClock(start=10.0)
        clock.sleep_until(3.0)
        assert clock.now() == 10.0

    def test_system_clock_past_deadline_returns_immediately(self):
        clock = SystemClock()
        clock.sleep_until(clock.now() - 1.0)   # must not block or raise

    def test_absolute_deadlines_do_not_drift(self):
        """Pacing via sleep_until absorbs time spent inside the loop."""
        clock = VirtualClock()
        origin = clock.now()
        for index in range(1, 6):
            clock.sleep(0.03)                  # "work" inside the tick
            clock.sleep_until(origin + index * 0.1)
        assert clock.now() == pytest.approx(0.5)


class TestOrderedWaiters:
    def test_manual_mode_parks_until_advance(self):
        clock = VirtualClock(manual=True)
        woke = threading.Event()

        def sleeper():
            clock.sleep(1.0)
            woke.set()

        thread = threading.Thread(target=sleeper, daemon=True)
        thread.start()
        while clock.pending_waiters() == 0:
            pass
        assert not woke.wait(0.05)             # parked, not self-advancing
        clock.advance(1.0)
        assert woke.wait(5.0)
        thread.join(timeout=5.0)

    def test_waiters_wake_in_deadline_then_registration_order(self):
        """advance() releases due sleepers deterministically ordered."""
        clock = VirtualClock(manual=True)
        order = []
        lock = threading.Lock()
        specs = [("a", 10.0), ("b", 3.0), ("c", 10.0), ("d", 5.0)]

        def sleeper(name, deadline):
            clock.sleep_until(deadline)
            with lock:
                order.append(name)

        pool = []
        for name, deadline in specs:
            thread = threading.Thread(target=sleeper,
                                      args=(name, deadline), daemon=True)
            thread.start()
            # Serialise registration so `seq` follows spec order.
            while clock.pending_waiters() < len(pool) + 1:
                pass
            pool.append(thread)

        clock.advance(20.0)                    # releases all four
        for thread in pool:
            thread.join(timeout=5.0)
        assert order == ["b", "d", "a", "c"]

    def test_partial_advance_releases_only_due_waiters(self):
        clock = VirtualClock(manual=True)
        woke = []
        lock = threading.Lock()

        def sleeper(name, deadline):
            clock.sleep_until(deadline)
            with lock:
                woke.append(name)

        threads = []
        for name, deadline in [("early", 3.0), ("late", 8.0)]:
            thread = threading.Thread(target=sleeper,
                                      args=(name, deadline), daemon=True)
            thread.start()
            while clock.pending_waiters() < len(threads) + 1:
                pass
            threads.append(thread)

        clock.advance(4.0)
        with lock:
            assert woke == ["early"]
        assert clock.pending_waiters() == 1
        clock.advance(10.0)
        for thread in threads:
            thread.join(timeout=5.0)
        assert woke == ["early", "late"]

    def test_auto_mode_lone_sleeper_never_blocks(self):
        clock = VirtualClock()                 # manual=False (default)
        clock.sleep(2.0)
        assert clock.now() == 2.0
        assert not clock.manual


class TestAutoModeUnderThreads:
    def test_concurrent_sleepers_never_park_and_time_never_falls(self):
        """Auto-mode sleeps move time forward and return; no waiter
        queue forms, and the clock ends at the largest deadline."""
        clock = VirtualClock()
        done = threading.Event()
        problems = []

        def sleeper(index):
            for step in range(500):
                deadline = index + 4 * step
                before = clock.now()
                clock.sleep_until(deadline)
                after = clock.now()
                if after < max(before, deadline):
                    problems.append(f"sleep_until({deadline}) moved time "
                                    f"from {before} to {after}")

        def reader():
            last = clock.now()
            while not done.is_set():
                now = clock.now()
                if now < last:
                    problems.append(f"now() fell from {last} to {now}")
                if clock.pending_waiters():
                    problems.append("a sleeper parked")
                last = now

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)            # interleave the threads finely
        try:
            watcher = threading.Thread(target=reader, daemon=True)
            watcher.start()
            pool = [threading.Thread(target=sleeper, args=(i,), daemon=True)
                    for i in range(4)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30.0)
                assert not thread.is_alive(), "auto-mode sleeper blocked"
            done.set()
            watcher.join(timeout=30.0)
            assert not watcher.is_alive()
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not problems, problems[:3]
        assert clock.now() == 1999.0
        assert clock.pending_waiters() == 0


class TestSystemClock:
    def test_now_is_monotonic(self):
        clock = SystemClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_sleep_rejects_negative(self):
        with pytest.raises(ValueError):
            SystemClock().sleep(-1.0)

    def test_sleep_zero_is_free(self):
        SystemClock().sleep(0.0)  # must not raise or block


class TestExecutorUsesVirtualTime:
    """The serial executor's timeout budget runs on the virtual clock."""

    def test_injected_delay_times_out_without_sleeping(self):
        plan = FaultPlan().delay(("slow",), seconds=10.0)
        outcome = run_tasks(
            [Task(key=("slow",), payload=1)],
            lambda payload: payload,
            retry=RetryPolicy(max_attempts=1, base_delay=0.0, timeout=1.0),
            fault_plan=plan,
            sleep=lambda _: None,
        )
        assert not outcome.failures.ok
        assert outcome.failures.failures[0].kind == "timeout"

    def test_delay_under_budget_passes(self):
        plan = FaultPlan().delay(("fast",), seconds=0.5)
        outcome = run_tasks(
            [Task(key=("fast",), payload=7)],
            lambda payload: payload,
            retry=RetryPolicy(max_attempts=1, base_delay=0.0, timeout=1.0),
            fault_plan=plan,
            sleep=lambda _: None,
        )
        assert outcome.failures.ok
        assert outcome.results[("fast",)] == 7
