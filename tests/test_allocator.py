"""Importing marc_cap sets glibc's malloc policy for the process, so repeated
calls serve their bound tables from memory that is already mapped: after
warm-up a call takes (almost) no minor page faults."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import marc_cap

# Two warm-up calls of each operation, then the mean minor-fault count of
# five more. Without the policy these take about 450 and 4,400 faults a call.
SCRIPT = """
import resource
from marc_cap import ChannelConfig, build_df_region, build_outer_region, sum_capacity

example1 = ChannelConfig(2, (6.0, 4.0), 4.0, 1.0, 1.0)
calls = {
    "sum_capacity": lambda: sum_capacity(example1, resolution=1e-5),
    "regions": lambda: (build_df_region(example1, 0.005), build_outer_region(example1, 0.005)),
}
for name, call in calls.items():
    call()
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        call()
    print(name, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc tunables")
def test_repeated_calls_stop_faulting_their_working_set():
    src = str(Path(marc_cap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, check=True)
    faults = {name: float(count) for name, count in (line.split() for line in run.stdout.splitlines())}
    assert set(faults) == {"sum_capacity", "regions"}
    for name, per_call in faults.items():
        assert per_call < 20, (name, per_call)
