"""Process set-up shared by the benchmark scripts.

Import this module before numpy: it pins the BLAS thread count through the
environment, which OpenBLAS reads when it loads.  ``blas_info`` then reads
the count back from the loaded library, and ``set_blas_threads`` pins it in a
process that imported numpy earlier (a test runner, for instance).
"""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_env(threads: int | None = None) -> int:
    threads = threads or nproc()
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def add_src() -> None:
    """Put the checkout's ``src`` first on the import path, or exit 2."""
    if not (SRC / "spreadhedge" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no spreadhedge sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _openblas():
    """The OpenBLAS library numpy loaded, with its symbol prefix, or None."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                return lib, prefix, suffix, path
    return None


def set_blas_threads(threads: int) -> None:
    found = _openblas()
    if found is not None:
        lib, prefix, suffix, _ = found
        fn = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
        fn(int(threads))


def blas_info() -> dict:
    found = _openblas()
    if found is None:
        return {"library": None, "threads": None}
    lib, prefix, suffix, path = found
    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
    get.restype = ctypes.c_int
    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
    name = Path(path).name
    if config is not None:
        config.restype = ctypes.c_char_p
        name = config().decode("ascii", "replace")
    return {"library": name, "threads": int(get())}


def git_commit() -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )


def environment() -> dict:
    import numpy

    import spreadhedge

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "spreadhedge": spreadhedge.__version__,
        "blas": blas_info(),
        "nproc": nproc(),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }
