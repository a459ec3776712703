"""The one process pool, ``rpopt.jobs.run_jobs``: the CPUs it counts, the
order of its results, when it starts no process, how a job's error comes
back, and how the job function reaches the processes."""

import contextlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

from rpopt import attacks, jobs
from rpopt.data import Dataset
from rpopt.errors import DivergenceError


def _square_and_pid(job):
    return job * job, os.getpid()


def _diverge_or_square(job):
    if job == 2:
        raise DivergenceError(job + 5)
    return job * job


def _blas_threads(job):
    return jobs._openblas_threads()[0]()


class _CountsPickles:
    """Appends a line to its file each time it is pickled."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        with open(self.path, "a", encoding="utf-8") as log:
            log.write("pickled\n")
        return (_CountsPickles, (self.path,))


def _square_beside(counter, job):
    return job * job


def _features_frozen(dataset, job):
    return attacks._frozen(dataset.features)


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


def _start_method(monkeypatch, method):
    """Make run_jobs' pool start its processes by ``method``."""
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(jobs, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=context))


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_the_job_function_is_pickled_once_per_process_or_never(monkeypatch, tmp_path, method):
    _cpus(monkeypatch, 2)
    _start_method(monkeypatch, method)
    log = tmp_path / "pickles.log"
    fn = partial(_square_beside, _CountsPickles(str(log)))
    assert jobs.run_jobs(fn, range(6)) == [job * job for job in range(6)]
    pickles = len(log.read_text(encoding="utf-8").splitlines()) if log.exists() else 0
    # forked processes inherit fn; the others get it once each, never per job
    assert pickles == 0 if method == "fork" else 1 <= pickles <= 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_a_job_sees_the_dataset_frozen(monkeypatch, method):
    _cpus(monkeypatch, 2)
    _start_method(monkeypatch, method)
    dataset = Dataset(features=np.eye(3) * 0.5, labels=np.array([0, 2, 1]))
    assert attacks._frozen(dataset.features)
    # forked: the caller's own arrays; otherwise a copy that the constructor froze
    assert jobs.run_jobs(partial(_features_frozen, dataset), range(2)) == [True, True]


@pytest.mark.parametrize(
    "fn, outcome",
    [(_square_and_pid, contextlib.nullcontext()), (_diverge_or_square, pytest.raises(DivergenceError))],
    ids=["ok", "raises"],
)
def test_the_calling_process_never_installs_a_job_function(monkeypatch, fn, outcome):
    _cpus(monkeypatch, 2)
    with outcome:
        jobs.run_jobs(fn, range(6))
    assert jobs._installed is None
    assert multiprocessing.active_children() == []
