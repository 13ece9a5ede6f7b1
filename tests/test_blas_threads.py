"""Importing delta_scope runs BLAS on one thread unless the caller set a count.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when it loads, so each check
runs in a fresh interpreter.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delta_scope as dsc

_SRC = str(Path(dsc.__file__).resolve().parents[1])

_PROBE = """
import json
import os

import delta_scope

tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
# SciPy carries its own OpenBLAS, which sparse leave-one-out loads
import scipy.linalg

print(json.dumps({
    "var": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": threads,
    "threads_with_scipy": len(os.listdir(tasks)) if threads is not None else None,
    "public_os": hasattr(delta_scope, "os"),
}))
"""


def _probe(openblas_threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_sets_one_blas_thread_and_no_public_name():
    seen = _probe(None)
    assert seen["var"] == "1"
    assert seen["public_os"] is False


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_blas_worker_thread():
    seen = _probe(None)
    assert seen["threads"] == 1
    assert seen["threads_with_scipy"] == 1


def test_an_explicit_thread_count_is_kept():
    assert _probe("2")["var"] == "2"
