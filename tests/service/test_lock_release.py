"""Every request-path critical section lets go of its lock when its body
raises.

These sections spell out ``lock.acquire()`` and ``try: ... finally:
lock.release()`` instead of ``with`` (see "A request pays for its
locks" in docs/performance.md).  Each test below drives an exception
from inside one of them, or from inside ``InMemoryBackend.fetch``,
which keeps ``with``, and checks that the lock is free afterwards,
that no flight is left in the table and that the next request is
served.  Each lock is a :class:`tests.conftest.SoloLock`, so a
section that kept its lock fails the next acquire instead of hanging
the test.  The AST check holds every statement-level acquire in
``src/repro`` to that shape, and pins where they are.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.cluster.cluster import build_cluster
from repro.exec.clock import VirtualClock
from repro.obs.metrics import MetricsRegistry
from repro.policies.lru import LRU
from repro.service.backend import FaultInjectedBackend, InMemoryBackend
from repro.service.faults import BackendFaultPlan
from repro.service.service import (
    HIT,
    MISS,
    CacheService,
    ServiceConfig,
    ServiceMetrics,
)
from tests.conftest import SoloLock


class PolicyFault(Exception):
    """What an armed :class:`FaultyLRU` raises."""


class FaultyLRU(LRU):
    """LRU whose next ``request`` raises once :attr:`armed` is set."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.armed = False

    def request(self, key, size=1):
        if self.armed:
            self.armed = False
            raise PolicyFault(key)
        return super().request(key, size)


def solo(*owners):
    """Give each owner a fresh :class:`SoloLock` as its ``_lock``."""
    for owner in owners:
        owner._lock = SoloLock()


def faulty_service(**kwargs):
    service = CacheService(FaultyLRU(10), InMemoryBackend(), ServiceConfig(),
                           clock=VirtualClock(), **kwargs)
    solo(service, service.metrics, service.backend)
    return service


def assert_idle(service):
    """No lock held and no flight left behind."""
    assert service._lock.locked() is False
    assert service.metrics._lock.locked() is False
    assert service._flights == {}


class TestServiceSections:
    def test_a_raising_hit_releases_the_service_lock(self):
        service = faulty_service()
        assert service.get("a").outcome == MISS
        service.policy.armed = True
        with pytest.raises(PolicyFault):
            service.get("a")
        assert_idle(service)
        assert service.get("a").outcome == HIT

    def test_a_raising_admission_releases_lock_and_flight(self):
        service = faulty_service()
        service.policy.armed = True      # the first request() admits
        with pytest.raises(PolicyFault):
            service.get("b")
        assert_idle(service)
        assert "b" not in service.policy
        assert service.get("b").outcome == MISS
        assert service.get("b").outcome == HIT
        assert service.backend.fetch_count("b") == 2

    def test_a_raising_put_releases_the_service_lock(self):
        service = faulty_service()
        service.policy.armed = True
        with pytest.raises(PolicyFault):
            service.put("c", "pushed")
        assert_idle(service)
        service.put("c", "pushed")
        result = service.get("c")
        assert (result.outcome, result.value) == (HIT, "pushed")

    def test_a_raising_record_releases_the_ledger_lock(self):
        service = faulty_service(registry=MetricsRegistry())
        # bisect cannot order a string among the float bucket bounds.
        with pytest.raises(TypeError):
            service.metrics.record(HIT, "not a latency")
        assert_idle(service)
        assert service.get("a").outcome == MISS
        assert service.metrics.snapshot()["miss"] == 1

    def test_a_raising_bump_releases_the_ledger_lock(self):
        class Uncountable:
            """Passes bump's sign check, fails the counter's add."""

            def __lt__(self, other):
                return False

        ledger = ServiceMetrics()
        solo(ledger)
        with pytest.raises(TypeError):
            ledger.bump("negative_hits", Uncountable())
        assert ledger._lock.locked() is False
        ledger.bump("negative_hits")
        assert ledger.side["negative_hits"] == 1


class TestClusterSections:
    def test_an_unhashable_key_releases_the_tracker_lock(self):
        cluster = build_cluster(lambda: LRU(10), shards=4,
                                clock=VirtualClock())
        solo(cluster.hot_tracker, cluster.metrics)
        for service in cluster.shards.values():
            solo(service, service.metrics, service.backend)
        with pytest.raises(TypeError):
            cluster.get(["unhashable"])
        assert cluster.hot_tracker._lock.locked() is False
        assert cluster.metrics._lock.locked() is False
        for service in cluster.shards.values():
            assert_idle(service)
        assert cluster.get("k").outcome == MISS
        assert cluster.get("k").outcome == HIT


class TestBackendSections:
    @pytest.mark.parametrize("kind", ["in-memory", "fault-injected"])
    def test_an_unhashable_key_releases_the_backend_lock(self, kind):
        origin = InMemoryBackend()
        backend = (origin if kind == "in-memory" else
                   FaultInjectedBackend(origin, BackendFaultPlan(),
                                        VirtualClock()))
        solo(origin, backend)
        with pytest.raises(TypeError):
            backend.fetch(["unhashable"])
        assert backend._lock.locked() is False
        assert origin._lock.locked() is False
        service = CacheService(LRU(4), backend, clock=VirtualClock())
        assert service.get("k").outcome == MISS
        assert service.get("k").value == "value:k"
        assert origin.fetch_count("k") == 1


# ----------------------------------------------------------------------
# The shape of every spelled-out section
# ----------------------------------------------------------------------

SRC = Path(repro.__file__).resolve().parent

#: Where the request path spells out a lock's acquire and release:
#: ``(module under src/repro, function)``, one entry per section.
SECTIONS = [
    ("cluster/cluster.py", "observe"),
    ("service/backend.py", "fetch"),     # FaultInjectedBackend
    ("service/service.py", "_release"),
    ("service/service.py", "bump"),
    ("service/service.py", "get"),
    ("service/service.py", "put"),
    ("service/service.py", "record"),
]


def statement_blocks(tree):
    """``(function name, statement list)`` for every block in *tree*."""
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, None)
            if isinstance(block, list) and block and isinstance(
                    block[0], ast.stmt):
                yield function, block
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)
    yield from visit(tree, None)


def method_call(statement, method):
    """The object whose *method* the expression statement calls with no
    arguments, or None."""
    if (isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Call)
            and isinstance(statement.value.func, ast.Attribute)
            and statement.value.func.attr == method
            and not statement.value.args and not statement.value.keywords):
        return ast.dump(statement.value.func.value)
    return None


def spelled_out_sections():
    """Each statement-level ``X.acquire()`` in src/repro as ``(module,
    function, released in the next statement's finally)``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.relative_to(SRC).as_posix()
        for function, block in statement_blocks(tree):
            for index, statement in enumerate(block):
                target = method_call(statement, "acquire")
                if target is None:
                    continue
                after = block[index + 1] if index + 1 < len(block) else None
                released = isinstance(after, ast.Try) and any(
                    method_call(final, "release") == target
                    for final in after.finalbody)
                found.append((module, function, released))
    return found


def test_every_acquire_is_released_in_the_next_statements_finally():
    found = spelled_out_sections()
    unreleased = [(module, function) for module, function, released
                  in found if not released]
    assert unreleased == []
    assert sorted((module, function) for module, function, _ in found) \
        == SECTIONS

