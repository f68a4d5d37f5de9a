"""BLAS thread pinning and the machine record written with every result.

Import this module before numpy: it imports nothing heavy, and
:func:`pin_blas_threads` only takes effect if it runs before the BLAS
library is loaded.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads():
    """One BLAS thread in this process and in every process it starts."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _loaded_openblas():
    """Paths of the OpenBLAS libraries mapped into this process."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        pass
    return sorted(paths)


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def blas_info():
    """Build string and live thread count of each loaded OpenBLAS."""
    out = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        names = [f"{prefix}_{what}{suffix}"
                 for prefix in ("scipy_openblas", "openblas")
                 for suffix in ("64_", "")
                 for what in ("get_config",)]
        config = _call(lib, names, ctypes.c_char_p)
        threads = _call(lib, [n.replace("get_config", "get_num_threads")
                              for n in names], ctypes.c_int)
        out.append({"library": os.path.basename(path),
                    "config": config.decode() if config else None,
                    "threads": threads})
    return out


def source_digest(src_dir):
    """SHA-256 over the qfpsim sources, so a checkout without git history
    still identifies the code it measured."""
    digest = hashlib.sha256()
    for path in sorted(src_dir.rglob("*.py")):
        digest.update(str(path.relative_to(src_dir)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def record(root, src_dir):
    """What ran, where: versions, BLAS build and threads, CPU count."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
        "qfpsim_commit": git_commit(root),
        "qfpsim_src_sha256": source_digest(src_dir),
    }
