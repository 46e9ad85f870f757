"""Statistics, environment record and result output for the benchmark."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from run import BLAS_THREAD_VARS

TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it


def tail(values) -> tuple:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND values above it. With 2 * TAIL_BEYOND values or fewer that
    percentile is at or below the median, so the maximum is reported."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return float(ordered[-1]), 100.0
    return float(ordered[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n


def _git_commit(root: Path):
    """Commit of a git checkout at `root`, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, args) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "argv": sys.argv[1:],
    }


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
