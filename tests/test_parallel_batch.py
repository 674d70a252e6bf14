"""`run_batch` runs its repetitions in forked workers, one per CPU this
process may run on and each on one BLAS thread. Its payload and its errors
must be those of a serial run, and no worker may outlive it."""

import ctypes
import errno
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from panelcluster import simulation
from panelcluster.io import result_payload
from panelcluster.simulation import SimulationConfig, run_batch
from panelcluster.types import NonConvergence

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="run_batch forks only where os.fork and os.sched_getaffinity exist")


def openblas_threads():
    """numpy's bundled OpenBLAS thread getter and setter, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for get_name, set_name in (
                ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_set_num_threads64_"),
                ("openblas_get_num_threads", "openblas_set_num_threads")):
            if hasattr(dll, get_name) and hasattr(dll, set_name):
                getter = getattr(dll, get_name)
                getter.restype = ctypes.c_int
                return getter, getattr(dll, set_name)
    return None


forks_batches = pytest.mark.skipif(
    openblas_threads() is None or sys.version_info >= (3, 12),
    reason="batches run serially without numpy's bundled OpenBLAS and on "
           "Python 3.12 and later")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs run_batch may use to a count, real or not."""
    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)))
    return set_count


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children run_batch forks."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def payload(config):
    return json.dumps(result_payload(run_batch(config)), sort_keys=True)


def config(model, reps, **kwargs):
    n, T = (12, 60) if model == "logistic" else (9, 40)
    return SimulationConfig(model=model, n=n, T=T, reps=reps, seed=11,
                            restarts=5, select_groups=True, **kwargs)


@forks_batches
@pytest.mark.parametrize("reps", [1, 2, 3, 5])
@pytest.mark.parametrize("model", ["model1", "model3", "logistic", "model4"])
def test_payload_is_byte_identical_to_one_worker(cpus, forks, model, reps):
    cpus(1)
    serial = payload(config(model, reps))
    assert forks == []
    for count in (2, 3):
        cpus(count)
        assert payload(config(model, reps)) == serial
        assert_no_child_left()
    assert len(forks) == min(reps, 2) - 1 + min(reps, 3) - 1


def failing_run_rep(monkeypatch, errors):
    """Make run_rep raise errors[rep] for each rep in `errors`."""
    run_rep = simulation.run_rep

    def failing(config, rep):
        if rep in errors:
            raise errors[rep]
        return run_rep(config, rep)

    monkeypatch.setattr(simulation, "run_rep", failing)


def raised(config):
    with pytest.raises(Exception) as info:
        run_batch(config)
    assert_no_child_left()
    return type(info.value), str(info.value)


@forks_batches
@pytest.mark.parametrize("failing", [
    # with two workers the parent runs reps 0 and 1, a child reps 2 to 4
    pytest.param([3], id="child"), pytest.param([1], id="parent"),
    pytest.param([3, 1], id="both"),
    pytest.param([4, 2], id="child-twice"),
    pytest.param([4, 3, 1, 0], id="both-twice")])
def test_error_is_the_lowest_failing_reps_as_in_a_serial_run(
        monkeypatch, cpus, forks, failing):
    errors = {rep: (NonConvergence if rep % 2 else ValueError)(
        f"repetition {rep} failed") for rep in failing}
    failing_run_rep(monkeypatch, errors)
    cpus(1)
    serial = raised(config("model1", 5))
    assert serial == (type(errors[min(failing)]),
                      f"repetition {min(failing)} failed")
    cpus(2)
    assert raised(config("model1", 5)) == serial
    assert len(forks) == 1


@forks_batches
def test_a_worker_that_dies_without_a_result_is_named(monkeypatch, cpus):
    run_rep = simulation.run_rep

    def dying(config, rep):
        if rep == 3:
            os._exit(3)
        return run_rep(config, rep)

    monkeypatch.setattr(simulation, "run_rep", dying)
    cpus(2)
    with pytest.raises(ChildProcessError,
                       match=r"repetitions \[2, 3, 4\] ended without a result"):
        run_batch(config("model1", 5))
    assert_no_child_left()


@forks_batches
def test_a_parent_error_outranks_a_worker_that_dies(monkeypatch, cpus):
    # rep 0 fails in the parent's block and rep 1 ends its child without a
    # result: the serial run raises rep 0's error and never reaches rep 1
    def failing(config, rep):
        if rep == 1:
            os._exit(3)
        raise ValueError(f"repetition {rep} failed")

    monkeypatch.setattr(simulation, "run_rep", failing)
    cpus(1)
    serial = raised(config("model1", 2))
    assert serial == (ValueError, "repetition 0 failed")
    cpus(2)
    assert raised(config("model1", 2)) == serial


@forks_batches
def test_an_interrupted_batch_kills_its_workers(monkeypatch, cpus):
    run_rep = simulation.run_rep

    def interrupted(config, rep):
        if rep == 0:
            raise KeyboardInterrupt
        time.sleep(60)  # a child's rep: only a kill ends it in time
        return run_rep(config, rep)

    monkeypatch.setattr(simulation, "run_rep", interrupted)
    cpus(3)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_batch(config("model1", 3))
    assert time.perf_counter() - start < 30
    assert_no_child_left()


@forks_batches
def test_an_interrupt_right_after_a_fork_kills_that_worker(monkeypatch,
                                                           cpus):
    # Ctrl-C landing as the parent closes its copy of the pipe's write
    # end, its first step after the fork, must not lose the child's pid
    parent = os.getpid()
    close = os.close
    run_rep = simulation.run_rep

    def interrupted_close(fd):
        close(fd)
        if os.getpid() == parent:
            raise KeyboardInterrupt

    def slow_in_a_child(config, rep):
        if os.getpid() != parent:
            time.sleep(60)  # only a kill ends it in time
        return run_rep(config, rep)

    monkeypatch.setattr(os, "close", interrupted_close)
    monkeypatch.setattr(simulation, "run_rep", slow_in_a_child)
    cpus(2)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_batch(config("model1", 2))
    assert time.perf_counter() - start < 30
    assert_no_child_left()


@forks_batches
def test_a_failed_fork_raises_and_leaves_nothing_open(monkeypatch, cpus):
    get_threads, set_threads = openblas_threads()
    fork = os.fork
    calls = []

    def second_fork_fails():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    cpus(3)
    before = get_threads()
    set_threads(2)
    try:
        fds = set(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            run_batch(config("model1", 3))
        assert set(os.listdir("/proc/self/fd")) == fds
        assert_no_child_left()
        assert get_threads() == 2
    finally:
        set_threads(before)
    assert len(calls) == 2


@forks_batches
@pytest.mark.parametrize("fails", [False, True])
@pytest.mark.parametrize("count", [1, 2])
def test_blas_threads_are_one_in_a_forked_batch_and_restored_after(
        monkeypatch, cpus, count, fails):
    get_threads, set_threads = openblas_threads()
    run_rep = simulation.run_rep
    seen = []

    def recording(config, rep):
        seen.append(get_threads())
        if fails:
            raise ValueError("failed")
        return run_rep(config, rep)

    monkeypatch.setattr(simulation, "run_rep", recording)
    cpus(count)
    before = get_threads()
    set_threads(2)
    try:
        if fails:
            with pytest.raises(ValueError, match="failed"):
                run_batch(config("model1", 2))
        else:
            run_batch(config("model1", 2))
        assert get_threads() == 2
    finally:
        set_threads(before)
    # the reps the parent ran, the child's being recorded there; a batch
    # that forks nothing keeps the caller's threads
    assert set(seen) == {1 if count == 2 else 2}


@forks_batches
@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("reps", [1, 2, 3, 5])
def test_forks_never_exceed_the_cpus_minus_one(cpus, forks, count, reps):
    cpus(count)
    run_batch(config("model3", reps))
    assert len(forks) == min(reps, count) - 1
    assert_no_child_left()


@pytest.mark.parametrize("lacks", ["one-blas-thread", "fork", "python<3.12"])
def test_a_batch_stays_in_one_process_without_what_forking_needs(
        monkeypatch, cpus, forks, lacks):
    cpus(1)
    serial = payload(config("model1", 3))
    cpus(2)
    if lacks == "fork":
        monkeypatch.delattr(os, "fork")
    elif lacks == "python<3.12":
        monkeypatch.setattr(sys, "version_info", (3, 12, 0, "final", 0))
    else:
        monkeypatch.setattr(simulation, "_openblas_threads", lambda: None)
    assert payload(config("model1", 3)) == serial
    assert forks == []
