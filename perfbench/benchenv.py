"""Process set-up shared by the benchmark entry point and its set-up probe.

The benchmark always measures the package in ``src/`` of the checkout it
lives in, never an installed copy, and pins the numeric libraries to a
single thread so that it measures the program rather than the scheduler.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One process, no thread pool: every layer of the package is
# single-threaded today, and the box this was sized on has 2 cores.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = 1


class PackageMissing(RuntimeError):
    """The checkout holds no importable ``src/ris_secrecy``."""


def pin_threads() -> None:
    """Pin numeric-library thread pools; must run before numpy is imported."""
    for name in THREAD_ENV:
        os.environ[name] = str(min(THREADS, os.cpu_count() or 1))


def import_package():
    """Import ``ris_secrecy`` from this checkout's ``src/`` or raise."""
    if not (SRC / "ris_secrecy" / "__init__.py").is_file():
        raise PackageMissing(f"no package at {SRC / 'ris_secrecy'}")
    sys.path.insert(0, str(SRC))
    import ris_secrecy

    where = Path(ris_secrecy.__file__).resolve()
    if SRC not in where.parents:
        raise PackageMissing(f"ris_secrecy imported from {where}, not from {SRC}")
    return ris_secrecy


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_commit": _git_commit(),
    }
