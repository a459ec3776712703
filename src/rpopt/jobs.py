"""The one process pool: independent jobs spread over the usable CPUs.

:func:`run_jobs` runs a list of jobs on one process per CPU this process
may use (its affinity mask), at most one per job; with one CPU or one job
they run in this process and none is started.  While a job runs, the
loaded OpenBLAS runs one thread, so that its threads do not compete with
the other jobs: a pool process sets this once, as it starts, and this
process holds it around its list of jobs.  The jobs are the binary rows
and multi-class cells of a sweep (see :mod:`rpopt.curvature`) and fig1's
two seed stacks (see :mod:`rpopt.experiments`).

The job function reaches each pool process once, when the process starts:
the pool's initializer keeps it in ``_installed``, and then only the jobs
are sent.  Under the ``fork`` start method the processes inherit it and
nothing of it is pickled, so they read the caller's (read-only) arrays.
Only pool processes set ``_installed``; in the calling process it stays
None.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from concurrent.futures import ProcessPoolExecutor
from functools import cache

_installed = None  # the job function of this pool process; set by _install only


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or the machine's
    CPU count where the platform has no mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS this process has
    loaded, or None where none is loaded or it exports neither; looked up
    once per process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({
                line.split(None, 5)[-1].strip()
                for line in maps
                if "openblas" in line.rsplit("/", 1)[-1].lower()
            })
    except OSError:  # no such file where the platform is not Linux
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # loads nothing new
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
                if get and set_:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with the loaded OpenBLAS on one thread, then give it back
    the count it had, also on error; nothing changes where none is loaded."""
    control = _openblas_threads()
    if control is None:
        yield
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _install(fn):
    """The pool's initializer: keep fn for every job this process runs, and
    run the loaded OpenBLAS on one thread for the life of the process."""
    global _installed
    _installed = fn
    control = _openblas_threads()
    if control is not None:
        control[1](1)


def _run_installed(job):
    """The pool's task: the installed function on one job."""
    return _installed(job)


def run_jobs(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``, each call with BLAS on one thread, on
    min(jobs, usable CPUs) processes, or in this one when that is 1.

    ``fn`` is handed to each process once, as it starts: under ``fork`` it
    is inherited and never pickled, otherwise it must pickle and is pickled
    once per process.  The jobs and their results must pickle.  The results
    keep the jobs' order.  An error in a job is raised here, once the jobs
    already running have ended and the others are cancelled, so no process
    outlives the call.
    """
    jobs = list(jobs)
    processes = min(len(jobs), usable_cpus())
    if processes <= 1:
        with _one_blas_thread():
            return [fn(job) for job in jobs]
    with ProcessPoolExecutor(processes, initializer=_install, initargs=(fn,)) as pool:
        try:
            return list(pool.map(_run_installed, jobs))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
