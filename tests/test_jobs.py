"""The one process pool, ``rpopt.jobs.run_jobs``: the CPUs it counts, the
order of its results, when it starts no process, and how a job's error
comes back."""

import multiprocessing
import os

import pytest

from rpopt import jobs
from rpopt.errors import DivergenceError


def _square_and_pid(job):
    return job * job, os.getpid()


def _diverge_or_square(job):
    if job == 2:
        raise DivergenceError(job + 5)
    return job * job


def _blas_threads(job):
    return jobs._openblas_threads()[0]()


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    # the CPUs this process may run on, not the machine's
    assert jobs.usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert jobs.usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert jobs.usable_cpus() == 1


def test_results_keep_the_job_order(monkeypatch):
    _cpus(monkeypatch, 2)
    results = jobs.run_jobs(_square_and_pid, range(5))
    assert [square for square, _ in results] == [0, 1, 4, 9, 16]
    assert os.getpid() not in {pid for _, pid in results}
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus, count", [(1, 3), (4, 1), (2, 0)], ids=["one cpu", "one job", "no job"])
def test_one_process_starts_none(monkeypatch, cpus, count):
    _cpus(monkeypatch, cpus)

    def no_pool(*args, **kwargs):
        raise AssertionError("run_jobs started a process pool")

    monkeypatch.setattr(jobs, "ProcessPoolExecutor", no_pool)
    results = jobs.run_jobs(_square_and_pid, range(count))
    assert results == [(job * job, os.getpid()) for job in range(count)]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_jobs_error_is_raised_whole_and_no_process_is_left(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    with pytest.raises(DivergenceError) as raised:
        jobs.run_jobs(_diverge_or_square, range(6))
    # the step and the message come back from a job process as they left it
    assert raised.value.step == 7
    assert str(raised.value) == "training diverged at step 7"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_job_runs_one_blas_thread(monkeypatch, cpus):
    control = jobs._openblas_threads()
    if control is None:
        pytest.skip("no OpenBLAS thread control is loaded (another BLAS, or no /proc/self/maps)")
    get, set_ = control
    before = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS does not run 2 threads here")
        _cpus(monkeypatch, cpus)
        assert jobs.run_jobs(_blas_threads, range(2)) == [1, 1]
        assert get() == 2  # the count is given back
    finally:
        set_(before)
