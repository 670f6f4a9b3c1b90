"""Unit and integration tests for the self-healing execution runtime
(repro.robust.supervisor): circuit breaker, supervised pool, chaos-driven
worker kill/hang recovery, and the graceful partial-result exit.

The pool tests register toy experiment drivers at module scope — fork
workers inherit the patched registry, so no real (slow) paper experiment
needs to run to exercise supervision.
"""

import multiprocessing

import pytest

from repro.experiments import Lab
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import EXPERIMENTS
from repro.robust import (
    ChaosPlan,
    CircuitBreaker,
    SupervisedPool,
    WorkerCrashError,
    WorkerHangError,
)
from repro.perf.parallel import rebuild_error

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool tests patch the experiment registry and rely on fork",
)


def _toy_driver(lab):
    return ExperimentResult("toy", "toy experiment", summary={"x": 1.0})


def _toy_driver_2(lab):
    return ExperimentResult("toy2", "second toy", summary={"y": 2.0})


@pytest.fixture
def toy_registry(monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "toy", _toy_driver)
    monkeypatch.setitem(EXPERIMENTS, "toy2", _toy_driver_2)


def _lab_config():
    return Lab(scale=0.05, noise_sigma=0.0).spawn_config()


def _quiet_chaos(**overrides) -> ChaosPlan:
    """A ChaosPlan with no ambient faults unless a test asks for them."""
    fields = dict(
        seed=0,
        kill_exp_ids=(),
        hang_exp_ids=(),
        memo_read_faults=0,
        memo_write_faults=0,
        slow_io_count=0,
        slow_io_s=0.0,
        corrupt_after=0,
    )
    fields.update(overrides)
    return ChaosPlan(**fields)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        b = CircuitBreaker(failure_threshold=3, reset_after_s=60.0)
        b.record_failure()
        b.record_failure()
        assert b.state == b.CLOSED and b.allow()
        b.record_failure()
        assert b.state == b.OPEN and not b.allow()
        assert b.trips == 1

    def test_success_resets_the_consecutive_count(self):
        b = CircuitBreaker(failure_threshold=2, reset_after_s=60.0)
        for _ in range(5):
            b.record_failure()
            b.record_success()
        assert b.state == b.CLOSED and b.trips == 0

    def test_half_open_probe_success_is_a_recovery(self):
        clock = [0.0]
        b = CircuitBreaker(
            failure_threshold=1, reset_after_s=10.0, clock=lambda: clock[0]
        )
        b.record_failure()
        assert not b.allow()
        clock[0] = 10.0
        assert b.state == b.HALF_OPEN and b.allow()
        b.record_success()
        assert b.state == b.CLOSED and b.recoveries == 1

    def test_half_open_probe_failure_retrips(self):
        clock = [0.0]
        b = CircuitBreaker(
            failure_threshold=3, reset_after_s=5.0, clock=lambda: clock[0]
        )
        for _ in range(3):
            b.record_failure()
        clock[0] = 5.0
        assert b.state == b.HALF_OPEN
        b.record_failure()  # one strike suffices while half-open
        assert b.state == b.OPEN and b.trips == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after_s=-1.0)


class TestSupervisedPool:
    def test_happy_path_payload_shape(self, toy_registry):
        with SupervisedPool(2, _lab_config()) as pool:
            payloads = [
                pool.submit("toy").result(timeout=60),
                pool.submit("toy2").result(timeout=60),
            ]
        assert [p["exp_id"] for p in payloads] == ["toy", "toy2"]
        assert all(p["status"] == "ok" for p in payloads)
        assert all(p["error"] is None for p in payloads)
        assert payloads[0]["result"].summary == {"x": 1.0}
        assert pool.stats.workers_spawned == 2
        assert pool.stats.partial is False

    def test_killed_worker_is_replaced_and_task_redispatched(self, toy_registry):
        chaos = _quiet_chaos(kill_exp_ids=("toy",))
        with SupervisedPool(1, _lab_config(), chaos=chaos) as pool:
            payload = pool.submit("toy").result(timeout=60)
        # The kill directive fired on the first dispatch only; the
        # replacement worker ran the task cleanly to the same result.
        assert payload["status"] == "ok"
        assert payload["result"].summary == {"x": 1.0}
        assert pool.stats.worker_crashes == 1
        assert pool.stats.workers_replaced == 1
        assert pool.stats.redispatches == 1

    def test_hung_worker_hits_the_deadline_and_is_replaced(self, toy_registry):
        chaos = _quiet_chaos(hang_exp_ids=("toy2",))
        with SupervisedPool(
            1, _lab_config(), hang_timeout_s=1.0, chaos=chaos
        ) as pool:
            payload = pool.submit("toy2").result(timeout=60)
        assert payload["status"] == "ok"
        assert pool.stats.worker_hangs == 1
        assert pool.stats.workers_replaced == 1

    def test_respawn_budget_exhaustion_is_a_partial_exit(self, toy_registry):
        # Every dispatch of "toy" kills its worker and the budget allows
        # no replacements: the pool must resolve the future as a typed
        # failure instead of deadlocking the consumer.
        chaos = _quiet_chaos(kill_exp_ids=("toy",))
        with SupervisedPool(
            1, _lab_config(), respawn_budget=0, chaos=chaos
        ) as pool:
            payload = pool.submit("toy").result(timeout=60)
        assert payload["status"] == "failed"
        err = rebuild_error(payload["error"])
        assert isinstance(err, WorkerCrashError)
        assert pool.stats.partial is True

    def test_queued_work_fails_fast_once_budget_is_gone(self, toy_registry):
        chaos = _quiet_chaos(kill_exp_ids=("toy",))
        with SupervisedPool(
            1, _lab_config(), respawn_budget=0, chaos=chaos
        ) as pool:
            first = pool.submit("toy")
            second = pool.submit("toy2")
            p1 = first.result(timeout=60)
            p2 = second.result(timeout=60)
        assert p1["status"] == "failed"
        assert p2["status"] == "failed"
        assert "respawn budget" in p2["error"]["rendered"]
        assert pool.stats.partial is True

    def test_shutdown_cancels_pending_futures(self, toy_registry):
        pool = SupervisedPool(1, _lab_config())
        done = pool.submit("toy")
        done.result(timeout=60)
        pool.shutdown(cancel=True)
        with pytest.raises(RuntimeError):
            pool.submit("toy")

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            SupervisedPool(0, {})
        with pytest.raises(ValueError, match="hang_timeout_s"):
            SupervisedPool(1, {}, hang_timeout_s=0.0)
        with pytest.raises(ValueError, match="respawn_budget"):
            SupervisedPool(1, {}, respawn_budget=-1)


class TestFailurePayloadContract:
    """Supervisor-synthesized failures rebuild like worker failures."""

    def test_rendered_error_round_trips(self):
        from repro.robust.supervisor import _failure_payload

        err = WorkerHangError(
            "worker running 'fig5' stopped heartbeating",
            stage="experiment",
            defect="worker stall",
        )
        payload = _failure_payload("fig5", err, attempts=2)
        rebuilt = rebuild_error(payload["error"])
        assert isinstance(rebuilt, WorkerHangError)
        assert str(rebuilt) == str(err)
        assert payload["attempts"] == 2
        assert payload["status"] == "failed"
