"""`run_batch` runs its repetitions in forked workers, one per CPU this
process may run on and each on one BLAS thread. Its payload and its errors
must be those of a serial run.

The workers are kept for the process's later batches: a batch forks only
the workers the pool lacks, and forks it afresh when a worker has exited
or a panelcluster binding, numpy's error handling or the warning filters
changed since its fork. A batch that raises kills and reaps every worker,
and so does interpreter exit; a worker whose parent dies exits. So after a
batch that succeeds at most (CPUs - 1) workers live, and after one that
raises none does. Each test here starts and ends with no worker."""

import contextlib
import ctypes
import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from panelcluster import simulation, spectral
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


SRC = Path(__file__).resolve().parents[1] / "src"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def state(pid):
    """The state letter of process `pid` ("Z" for exited, unreaped), or
    None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rpartition(")")[2].split()[0]


def children(pid="self"):
    """The pids of a process's children, exited ones included."""
    return {int(child) for task in Path(f"/proc/{pid}/task").iterdir()
            for child in (task / "children").read_text().split()}


def assert_live_workers_at_most(count):
    """After a batch that succeeded: every child is a live worker, and at
    most `count` of them."""
    assert [state(pid) for pid in children()].count("Z") == 0
    assert len(children()) <= count


def wait_for_exit(pid, seconds=5):
    """Whether `pid` has exited (gone, or "Z") within `seconds`."""
    deadline = time.monotonic() + seconds
    while state(pid) not in (None, "Z"):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.fixture(autouse=True)
def no_kept_workers():
    simulation._retire()
    yield
    simulation._retire()


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
        assert_live_workers_at_most(count - 1)
    # the batch at 3 CPUs forks only the worker the pool lacks
    assert len(forks) == min(reps, 3) - 1


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
    # Ctrl-C landing as the parent closes its copies of the worker's pipe
    # ends, right after the fork, must not lose the worker's pid
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
    assert_live_workers_at_most(count - 1)


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


@forks_batches
@pytest.mark.parametrize("model", ["model1", "logistic"])
def test_later_batches_reuse_the_workers_and_grow_the_pool(cpus, forks,
                                                          model):
    cpus(1)
    serial = payload(config(model, 5))
    cpus(2)
    assert payload(config(model, 5)) == serial
    assert payload(config(model, 5)) == serial
    assert len(forks) == 1
    cpus(3)
    assert payload(config(model, 5)) == serial
    assert len(forks) == 2
    cpus(2)  # a smaller batch runs on the pool's first worker
    assert payload(config(model, 5)) == serial
    assert len(forks) == 2
    assert children() == set(forks)


def probe_state(monkeypatch):
    """Make each RepResult carry the state its process ran it under."""
    run_rep = simulation.run_rep

    def probing(config, rep):
        result = run_rep(config, rep)
        result.state = here()
        return result

    monkeypatch.setattr(simulation, "run_rep", probing)


def here():
    return np.geterr(), warnings.filters[:], spectral.LLOYD_MAX_ITER


@forks_batches
@pytest.mark.parametrize("change", ["constant", "seterr", "warning-filter"])
def test_a_changed_state_forks_the_workers_afresh(monkeypatch, cpus, forks,
                                                  change):
    probe_state(monkeypatch)
    cpus(2)
    for _ in range(2):
        result = run_batch(config("model1", 4))
        assert [rep.state for rep in result.reps] == [here()] * 4
    assert len(forks) == 1
    with contextlib.ExitStack() as stack:
        if change == "constant":
            monkeypatch.setattr(spectral, "LLOYD_MAX_ITER", 1)
        elif change == "seterr":
            stack.enter_context(np.errstate(over="ignore"))
        else:
            stack.enter_context(warnings.catch_warnings())
            warnings.simplefilter("ignore", UserWarning)
        cpus(1)
        serial = payload(config("model1", 4))
        cpus(2)
        result = run_batch(config("model1", 4))
        assert json.dumps(result_payload(result), sort_keys=True) == serial
        assert [rep.state for rep in result.reps] == [here()] * 4
        assert len(forks) == 2
        assert children() == {forks[1]}


@forks_batches
def test_a_worker_killed_while_idle_is_replaced(cpus, forks):
    cpus(1)
    serial = payload(config("model1", 4))
    cpus(2)
    assert payload(config("model1", 4)) == serial
    (worker,) = forks
    assert children() == {worker}
    os.kill(worker, signal.SIGKILL)
    # the next batch must find it exited, not catch it between its check
    # and its first write
    assert wait_for_exit(worker)
    assert payload(config("model1", 4)) == serial
    assert len(forks) == 2
    assert children() == {forks[1]}


@forks_batches
def test_an_idle_worker_ignores_ctrl_c(cpus, forks):
    cpus(1)
    serial = payload(config("model1", 4))
    cpus(2)
    assert payload(config("model1", 4)) == serial
    (worker,) = forks
    assert children() == {worker}
    os.kill(worker, signal.SIGINT)
    assert not wait_for_exit(worker, seconds=0.5)
    assert payload(config("model1", 4)) == serial
    assert forks == [worker]


@forks_batches
def test_a_worker_holds_only_its_own_pipes_and_forks_nothing(cpus):
    cpus(3)
    run_batch(config("model1", 3))
    pool = {pid: {os.fstat(pipe.fileno()).st_ino for pipe in pipes}
            for pid, *pipes in simulation._Pool.workers}
    assert len(pool) == 2
    every = set().union(*pool.values())
    for pid, own in pool.items():
        held = {int(link[len("pipe:["):-1])
                for link in map(os.readlink, Path(f"/proc/{pid}/fd").iterdir())
                if link.startswith("pipe:[")}
        assert held & every == own
        assert children(pid) == set()


# The subprocess forces 3 CPUs and prints its workers' pids after a batch.
# At a commit that keeps no worker it prints none, which these tests reject.
KEPT_WORKERS = """
import os, sys
from panelcluster.simulation import SimulationConfig, run_batch
os.sched_getaffinity = lambda pid: {0, 1, 2}
run_batch(SimulationConfig(model="model1", n=9, T=40, reps=3, seed=11,
                           restarts=5))
print(open(f"/proc/self/task/{os.getpid()}/children").read(), flush=True)
"""


def run_script(code, **kwargs):
    return subprocess.run([sys.executable, "-c", code], timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          **kwargs)


@forks_batches
def test_the_workers_exit_when_their_parent_is_killed(tmp_path):
    # stdout goes to a file: a worker left running would hold a pipe open
    with open(tmp_path / "out", "w") as out:
        ran = run_script(KEPT_WORKERS + "os.kill(os.getpid(), 9)\n",
                         stdout=out)
    assert ran.returncode == -signal.SIGKILL
    workers = [int(pid) for pid in (tmp_path / "out").read_text().split()]
    assert len(workers) == 2
    for pid in workers:
        assert wait_for_exit(pid)


@forks_batches
def test_interpreter_exit_reaps_the_workers():
    # a worker left running would hold the captured stdout open, and
    # subprocess.run would wait for it until its timeout
    ran = run_script(KEPT_WORKERS, capture_output=True, text=True)
    assert ran.returncode == 0, ran.stderr
    workers = [int(pid) for pid in ran.stdout.split()]
    assert len(workers) == 2
    assert [state(pid) for pid in workers] == [None, None]


@forks_batches
def test_batches_in_two_threads_get_one_cpu_payloads(cpus, forks):
    configs = [config("model1", 4), config("logistic", 4)]
    cpus(1)
    serial = [payload(c) for c in configs]
    cpus(2)
    # a batch that finds the pool taken runs in one process
    with simulation._Pool.lock:
        assert payload(configs[0]) == serial[0]
    assert forks == []
    # the pool is forked before the threads start: a fork while another
    # thread may hold a lock inside numpy or OpenBLAS is not what this tests
    assert payload(configs[0]) == serial[0]
    got = {}

    def run(i):
        got[i] = [payload(configs[i % 2]) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert got == {i: [serial[i % 2]] * 3 for i in range(3)}
    assert len(forks) == 1
