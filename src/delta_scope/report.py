"""Structured JSON reports emitted by the command-line tools.

Every command produces one report object (see ``report_schema.json``):
schema_version, command name, echoed parameters, input-file digests, a
results payload and a list of warning strings. All numbers in a report must
be finite — non-finite values indicate a bug upstream and are rejected at
serialization time.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from importlib import resources
from typing import Callable

from .model_io import _atomic_write_text

__all__ = [
    "SCHEMA_VERSION",
    "build_report",
    "check_finite",
    "report_schema",
    "write_report",
    "sha256_file",
    "timed_median",
]

SCHEMA_VERSION = 1


def sha256_file(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_finite(obj, *, _path: str = "$") -> None:
    """Reject NaN/inf anywhere in a JSON-like payload."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite number at {_path}: {obj!r}")
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            check_finite(value, _path=f"{_path}.{key}")
        return
    if isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            check_finite(value, _path=f"{_path}[{i}]")
        return
    raise TypeError(f"non-JSON value at {_path}: {type(obj).__name__}")


def build_report(
    command: str,
    params: dict,
    inputs: dict[str, tuple[str | os.PathLike, str]],
    results: dict,
    warnings: list[str] | None = None,
) -> dict:
    """Assemble a report; :func:`write_report` checks its values.

    ``inputs`` maps name -> ``(path, sha256)``, the digest of the bytes the
    command read from that file.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "inputs": {
            name: {"path": os.fspath(path), "sha256": digest}
            for name, (path, digest) in inputs.items()
        },
        "results": results,
        "warnings": list(warnings or []),
    }


def report_schema() -> dict:
    text = resources.files("delta_scope").joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


def write_report(report: dict, path: str | os.PathLike | None) -> None:
    """Write the report as one line of JSON to ``path``, or to stdout.

    A report the encoder rejects is written nowhere; :func:`check_finite`
    then names the path of the offending value.
    """
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except (ValueError, TypeError):
        check_finite(report)
        raise
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        _atomic_write_text(path, text + "\n")


def timed_median(fn: Callable[[], object], repeats: int = 5) -> tuple[float, object]:
    """Median wall time of ``fn`` over ``repeats`` runs (monotonic clock)."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    times = []
    result = None
    for i in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
        if i == 0:
            result = out
    # the median as `statistics.median` takes it, without importing its
    # `fractions` and `decimal` into every CLI process
    times.sort()
    mid = repeats // 2
    middle = times[mid] if repeats % 2 else (times[mid - 1] + times[mid]) / 2
    return middle, result
