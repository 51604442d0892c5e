"""The BLAS library numpy uses, and the thread count in effect in this process."""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _openblas() -> ctypes.CDLL | None:
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        return ctypes.CDLL(str(path))
    return None


def _symbol(lib: ctypes.CDLL, suffix: str):
    for prefix in ("scipy_openblas_", "openblas_"):
        for tail in ("64_", "_64_", ""):
            try:
                return getattr(lib, prefix + suffix + tail)
            except AttributeError:
                continue
    return None


def threads_in_effect() -> int | None:
    """OpenBLAS's own thread count, or None when numpy links another BLAS."""
    lib = _openblas()
    fn = None if lib is None else _symbol(lib, "get_num_threads")
    if fn is None:
        return None
    fn.restype = ctypes.c_int
    fn.argtypes = []
    return int(fn())


def describe() -> dict:
    """Library name, version and build configuration as numpy reports them."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    info = {"name": blas.get("name"), "version": blas.get("version")}
    lib = _openblas()
    fn = None if lib is None else _symbol(lib, "get_config")
    if fn is not None:
        fn.restype = ctypes.c_char_p
        fn.argtypes = []
        info["config"] = fn().decode()
    return info
