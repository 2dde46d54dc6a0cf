"""One seed gives identical exact counts, outputs and certificates.

    python3 -m pytest tdbench/test_determinism.py

Each workload runs one traced pass twice from the same seed; the second
run builds its inputs afresh.
"""

import shutil
import tempfile
from pathlib import Path

import pytest

import run
import tracing
import workloads


def traced_pass(name: str, seed: int):
    modules = run.load_package()
    run.WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK_DIR))
    tracer = tracing.Tracer()
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        tracer.install(modules)
        try:
            tracer.begin_pass()
            _, _, results = run.run_pass(modules["cli"], workload, tracer)
        finally:
            tracer.uninstall()
        failed = run.failures(workload, [results])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return tracer.counts, [(rc, out) for _, rc, out in results], failed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_counts_and_certificates(name):
    counts, outputs, failed = traced_pass(name, seed=7)
    again, outputs_again, _ = traced_pass(name, seed=7)
    assert failed == (0, [])
    assert set(counts) <= set(tracing.COUNTS)
    assert counts == again
    assert outputs == outputs_again
