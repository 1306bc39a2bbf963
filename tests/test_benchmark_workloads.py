"""Every benchmark workload builds, and a cheap job of each passes its oracle check.

The workloads in ``perfbench/workloads.py`` read library attributes such as
``system.constants.t``, ``quad.meta["oversample"]`` and
``cert.effort.oversample``; a renamed one would otherwise surface only in a
benchmark run.  Each case builds its workload as the benchmark does (seed 1)
and runs its cheap jobs and their checks, without timing them.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the jobs run per workload, by name; l2-build-2d's first two feed its final check
CHEAP_JOBS = {
    "grid-exact": ["box:4 certificate", "box:4 poly 0"],
    "l1-attack": ["cross:2:1 grid_P quick"],
    "l2-build-2d": ["cross:5:2 random m=1284", "cross:4:2 random m=516", "cross:3:2 greedy m=196"],
    "sup-greedy": ["cross:2:1 sup 0"],
}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports its oracle as a top-level module
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def test_every_workload_is_covered(workloads):
    assert CHEAP_JOBS.keys() == workloads.WORKLOADS.keys()


@pytest.mark.parametrize("name", sorted(CHEAP_JOBS))
def test_cheap_jobs_pass_their_oracle_checks(workloads, name):
    wl = workloads.WORKLOADS[name](1)
    jobs = {job.name: job for job in wl.jobs}
    outputs = {}
    for job_name in CHEAP_JOBS[name]:
        out = outputs[job_name] = jobs[job_name].run()
        assert jobs[job_name].check(out) == [], job_name
    if wl.final_check is not None:
        first_two = [outputs.get(job.name) for job in wl.jobs[:2]]
        assert None not in first_two
        assert wl.final_check(first_two) == []
