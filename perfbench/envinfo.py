"""Environment record and the BLAS thread read-back.

The worker's parent sets the thread-cap variables before the worker imports
numpy; ``blas_threads`` asks the loaded OpenBLAS how many threads it will use,
because a variable set after numpy loads has no effect.
"""

import ctypes
import glob
import os
import platform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads")


def _blas_libraries():
    """OpenBLAS copies bundled with the numpy wheel (numpy.libs) or an in-tree build."""
    import numpy

    pkg = os.path.dirname(numpy.__file__)
    return sorted(glob.glob(os.path.join(pkg, os.pardir, "numpy.libs", "*openblas*.so*"))
                  + glob.glob(os.path.join(pkg, ".libs", "*openblas*.so*")))


def blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None if not found."""
    import numpy  # noqa: F401  (loads the library the read-back must see)

    for path in _blas_libraries() + [None]:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _GET_THREADS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_name():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """HEAD of the checkout if it is a git work tree; a plain export has none."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root, workload, seed, threads):
    import numpy

    try:
        load = os.getloadavg()
    except OSError:
        load = (float("nan"),) * 3
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_name(),
        "blas_threads": threads,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "loadavg_start": list(load),
        "workload": workload,
        "seed": seed,
    }
