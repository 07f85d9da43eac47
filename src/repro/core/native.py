"""The compiled seaweed kernel (``_seaweed.c``), built with gcc and loaded via ctypes.

:func:`kernel` returns the process-wide :class:`NativeKernel`, or ``None``
when it cannot be had (no compiler, a failed build, a failed load).  The
first call builds the shared object once per source hash into the per-user
cache directory (``$XDG_CACHE_HOME/repro-koo24``, else
``~/.cache/repro-koo24``): gcc writes a private temporary file that is then
``os.replace``-d into place, so processes compiling at the same moment (forked
shard workers, parallel test runs) each end up loading a complete library.
On failure the reason is logged once per process and every caller keeps
running its NumPy code, which stays the fallback and the oracle.

The ``repro_native_kernel`` gauge reads 1 when the kernel is loaded and 0 on
the fallback (:func:`kernel_status` publishes it).
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

from ..obs.metrics import get_registry

__all__ = ["NativeKernel", "cache_dir", "build_kernel", "load_kernel", "kernel", "kernel_status"]

_LOG = logging.getLogger(__name__)
_SOURCE = Path(__file__).with_name("_seaweed.c")
_CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120

_NATIVE_GAUGE = get_registry().gauge(
    "repro_native_kernel",
    "1 when the compiled seaweed kernel is loaded, 0 on the NumPy fallback",
)

_I64P = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")


class NativeKernel:
    """Typed ctypes entry points of the loaded ``_seaweed`` library."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lib = ctypes.CDLL(path)
        self._multiply = self._lib.repro_seaweed_multiply
        self._multiply.argtypes = [ctypes.c_int64, _I64P, _I64P, _I64P]
        self._multiply.restype = ctypes.c_int
        self._scores = self._lib.repro_patience_scores
        self._scores.argtypes = [ctypes.c_int64, _I64P, _I64P]
        self._scores.restype = ctypes.c_int
        self._sweep = self._lib.repro_seam_sweep
        self._sweep.argtypes = [ctypes.c_int64, ctypes.c_int64, _I64P, ctypes.c_int64, _I64P, _I64P]
        self._sweep.restype = ctypes.c_int

    def multiply(self, a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
        """Row-to-column array of ``P_A ⊡ P_B``; ``None`` if an operand is malformed."""
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        n = len(a)
        if a.ndim != 1 or b.shape != a.shape:
            raise ValueError("operands must be 1-d arrays of the same size")
        out = np.empty(n, dtype=np.int64)
        status = self._multiply(n, a, b, out)
        if status == -2:
            return None
        if status != 0:
            raise MemoryError("native seaweed multiply could not allocate its workspace")
        return out

    def patience_scores(self, values: np.ndarray) -> np.ndarray:
        """``(m+1, m+1)`` table: ``[x, y]`` = patience tails ``< y`` over values ``>= x``."""
        values = np.ascontiguousarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise ValueError("values must be a 1-d array")
        m = len(values)
        scores = np.empty((m + 1, m + 1), dtype=np.int64)
        if self._scores(m, values, scores) != 0:
            raise MemoryError("native patience scores could not allocate")
        return scores

    def seam_sweep(self, D: np.ndarray, row_to_col: np.ndarray, slots: np.ndarray) -> None:
        """Fold one cover part into the corner-score rows ``D`` in place.

        ``D`` is a C-contiguous ``(rows, width)`` int64 array; ``row_to_col``
        is the part's ``s x s`` sub-permutation, ``slots`` its keys' strictly
        increasing global ranks (``< width``).
        """
        if D.dtype != np.int64 or D.ndim != 2 or not D.flags.c_contiguous:
            raise ValueError("D must be a C-contiguous 2-d int64 array")
        row_to_col = np.ascontiguousarray(row_to_col, dtype=np.int64)
        slots = np.ascontiguousarray(slots, dtype=np.int64)
        s = len(slots)
        if row_to_col.shape != (s,) or slots.ndim != 1:
            raise ValueError("row_to_col and slots must be 1-d arrays of the same size")
        status = self._sweep(D.shape[0], D.shape[1], D, s, slots, row_to_col)
        if status == -2:
            raise ValueError("seam sweep operands are malformed")
        if status != 0:
            raise MemoryError("native seam sweep could not allocate its workspace")


def cache_dir() -> Path:
    """The per-user directory holding built kernels."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro-koo24"


def _cache_key() -> str:
    digest = hashlib.sha256(_SOURCE.read_bytes())
    digest.update(" ".join(_CFLAGS).encode())
    digest.update(platform.machine().encode())
    return digest.hexdigest()[:16]


def build_kernel(directory: Optional[Path] = None) -> Path:
    """Path of the kernel built from the current source, compiling it if absent.

    Raises :class:`OSError` (no compiler, unwritable directory) or
    :class:`subprocess.SubprocessError` (the compile failed or timed out).
    """
    directory = Path(directory) if directory is not None else cache_dir()
    target = directory / f"_seaweed-{_cache_key()}.so"
    if target.exists():
        return target
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        raise FileNotFoundError("no C compiler (gcc or cc) on PATH")
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, str(_SOURCE)],
            check=True,
            capture_output=True,
            timeout=_COMPILE_TIMEOUT_S,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def load_kernel(directory: Optional[Path] = None) -> NativeKernel:
    """Build (if needed) and load the kernel; raises on any failure."""
    return NativeKernel(str(build_kernel(directory)))


_LOCK = threading.Lock()
_UNTRIED = object()
#: The loaded kernel, ``None`` once loading failed, ``_UNTRIED`` before.
_KERNEL: object = _UNTRIED


def _fresh_lock_in_child() -> None:
    # A fork taken while another thread was loading must not inherit a held lock.
    global _LOCK
    _LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_lock_in_child)


def _fallback_reason(exc: BaseException) -> str:
    if isinstance(exc, subprocess.CalledProcessError):
        stderr = (exc.stderr or b"").decode(errors="replace").strip()
        return f"compile failed: {stderr.splitlines()[0] if stderr else exc}"
    return f"{type(exc).__name__}: {exc}"


def kernel() -> Optional[NativeKernel]:
    """The loaded kernel, or ``None`` when the NumPy fallback must run."""
    global _KERNEL
    if _KERNEL is _UNTRIED:
        with _LOCK:
            if _KERNEL is _UNTRIED:
                try:
                    _KERNEL = load_kernel()
                except (OSError, subprocess.SubprocessError) as exc:
                    _LOG.warning(
                        "native seaweed kernel unavailable, using NumPy: %s", _fallback_reason(exc)
                    )
                    _KERNEL = None
                _NATIVE_GAUGE.set(1 if _KERNEL is not None else 0)
    return _KERNEL


def kernel_status() -> str:
    """``'native'`` or ``'numpy'``; (re)publishes the ``repro_native_kernel`` gauge.

    Call it after a registry reset (forked workers) so the gauge reflects
    this process.
    """
    loaded = kernel() is not None
    _NATIVE_GAUGE.set(1 if loaded else 0)
    return "native" if loaded else "numpy"
