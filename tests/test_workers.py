"""Samplers split over worker processes give the bits of one process, and clean up.

After a chunk's first noise block, ``sde._run_paths`` splits its live rows
over forked workers by their streams (``sde._worker_count``).  The runs here
force the count: one worker, or three, which is more than the two CPUs of a
small machine.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from boundarylab import dirichlet, sde
from boundarylab.errors import ConfigError, ModelError
from boundarylab.fields import Flavor, assemble
from boundarylab.geometry import DomainKind, DomainModel
from boundarylab.sde import SimulationParams

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
N = 3 * sde.MIN_ROWS + 50         # three workers of at least MIN_ROWS streams each
ANNULUS = DomainModel(kind=DomainKind.ANNULUS, inner_radius=0.4, chart_radius=0.25)

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")


def _attraction(zoo, reports):
    p = SimulationParams(dt=5e-3, seed=201, n_paths=N, max_time=2.0)
    rows = sde.attraction_stats(zoo["B"], [(0.0, 0.3), (1.0, 2.0)], 2.0, p, far_wall=2.5)
    return [[(r.fraction_near, r.min_distance, r.max_distance) for r in rows]]


def _martingale(zoo, reports):
    p = SimulationParams(dt=1e-3, seed=202, n_paths=N, max_time=0.5)
    tr = sde.martingale_trace(zoo["B"], reports["B"], (0.0, 3.0), p, band=(1.5, 6.0),
                              checkpoint_times=[0.1, 0.3, 0.5])
    return [tr.values, tr.stderrs]


def _boundary(zoo, reports):
    p = SimulationParams(dt=2e-3, seed=203, n_paths=N, max_time=1.0)
    run = sde.simulate_boundary(zoo["tilted"], 0.5, p, burn_in=0.2, bins=16,
                                observables={"alpha": zoo["tilted"].alpha,
                                             "beta": zoo["tilted"].beta})
    return [run.histogram, run.averages["alpha"], run.averages["beta"]]


def _simulate(zoo, reports):
    p = SimulationParams(dt=2e-3, seed=204, n_paths=N, max_time=1.0, wall=1.5)
    b = sde.simulate(assemble(zoo["D"], None, Flavor.LIMIT), (0.3, 0.5), p)
    return [b.exit_y, b.exit_time, b.exited_mask, b.unstable_mask]


def _sample_exit(dom, stacked):
    def run(zoo, reports):
        comp = dirichlet.default_completions(zoo["D"])[0]
        ops = [dirichlet.DiskOperator(model=zoo["D"], eps=eps, completion=comp, dom=dom)
               for eps in (0.3, 0.1)]
        p = SimulationParams(dt=2e-3, seed=205, n_paths=N, max_time=0.6)
        if stacked:
            b = dirichlet.sample_exit(ops, (0.55, 0.25), p,
                                      checkpoint_times=[[0.2], [0.3, 0.55]])
        else:
            b = dirichlet.sample_exit(ops[0], (0.55, 0.25), p,
                                      checkpoint_times=[0.1, 0.3, 0.55])
        return [b.exit_theta, b.exit_time, b.exited_mask, b.exit_inner, b.positions]
    return run


SAMPLERS = {
    "attraction_stats": _attraction,
    "martingale_trace": _martingale,
    "simulate_boundary": _boundary,
    "simulate": _simulate,
    "sample_exit-disk": _sample_exit(DomainModel(), False),
    "sample_exit-annulus": _sample_exit(ANNULUS, False),
    "sample_exit-stacked-disk": _sample_exit(DomainModel(), True),
    "sample_exit-stacked-annulus": _sample_exit(ANNULUS, True),
}


def _forced(monkeypatch, workers):
    monkeypatch.setattr(sde, "_worker_count", lambda n_streams: min(workers, n_streams))


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_a_split_run_is_the_one_process_run_bit_for_bit(sampler, zoo, reports, monkeypatch):
    run = SAMPLERS[sampler]
    _forced(monkeypatch, 1)
    ref = run(zoo, reports)
    _forced(monkeypatch, 3)
    forked = _forks(monkeypatch)
    out = run(zoo, reports)
    assert forked
    if sampler.startswith(("simulate", "sample_exit")) and sampler != "simulate_boundary":
        exited = np.asarray(ref[2])
        assert 0 < np.count_nonzero(exited) < exited.size
    for a, b in zip(out, ref):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_the_worker_count_follows_the_cpus_and_the_streams():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert sde._worker_count(1) == sde._worker_count(2 * sde.MIN_ROWS - 1) == 1
    assert sde._worker_count(10**6) == cpus
    assert sde._worker_count(2 * sde.MIN_ROWS) == min(2, cpus)


def _forks(monkeypatch):
    """Records the pid of every worker forked from here on."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def _gone(pid) -> bool:
    """Whether no live process has this pid (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


def _failing_run(fail_rows, raise_it):
    """A 600-step run of N paths whose step calls raise_it() in the chunk holding a row
    of fail_rows."""
    p = SimulationParams(dt=1e-3, seed=206, n_paths=N, max_time=0.6)

    def advance(k, state, noise, uniform, live, pids):
        if k == 300 and np.any((fail_rows[0] <= pids) & (pids < fail_rows[1])):
            raise_it()
        return [state[0] + noise[:, 0]], live

    sde._run_paths(p, 600, lambda pids: [np.zeros(pids.size)], advance)


def _raise(exc):
    def raise_it():
        raise exc
    return raise_it


@pytest.mark.parametrize("fail_rows, raise_it, caught, match", [
    ((N - 1, N), _raise(ModelError("bad step")), ModelError, "bad step"),
    ((0, 1), _raise(ModelError("bad step")), ModelError, "bad step"),
    # an exception that cannot be rebuilt from its pickle arrives as RuntimeError
    ((N - 1, N), _raise(ConfigError("field", "bad")), RuntimeError, "ConfigError"),
    ((N - 1, N), lambda: os._exit(3), RuntimeError, "status 3"),
], ids=["in-worker", "in-parent", "unpicklable", "worker-exits"])
def test_an_error_reaches_the_caller_and_leaves_no_worker(fail_rows, raise_it, caught, match,
                                                          monkeypatch):
    _forced(monkeypatch, 3)
    pids = _forks(monkeypatch)
    with pytest.raises(caught, match=match):
        _failing_run(fail_rows, raise_it)
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)      # already reaped
        assert _gone(pid)


# runs a split sampler that would take hours, printing each worker's pid as it is forked
LONG_RUN = r"""
import os, sys
from boundarylab import models, sde
fork = os.fork
def noting():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = noting
sde._worker_count = lambda n_streams: 3
p = sde.SimulationParams(dt=1e-3, seed=207, n_paths=3 * sde.MIN_ROWS, max_time=1e5)
sde.simulate_boundary(models.get_model("A"), 0.0, p)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_no_worker_outlives_a_killed_parent():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-c", LONG_RUN], env=env,
                            stdout=subprocess.PIPE, text=True)
    workers = []
    try:
        workers = [int(proc.stdout.readline()) for _ in range(2)]
        time.sleep(0.5)
        assert not any(_gone(pid) for pid in workers)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10.0
        while not all(_gone(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(_gone(pid) for pid in workers)
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
        for pid in workers:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)
