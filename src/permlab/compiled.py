"""The compiled kernels of `_kernels.c`, built once and loaded with ctypes.

The source is compiled with gcc on first use into a per-user cache,
$XDG_CACHE_HOME/permlab (default ~/.cache/permlab), under a name that
carries the SHA-256 of the source and the compiler flags.  A missing gcc, a
failed compile or an unwritable cache is an OSError that names the compiler
or the path.  The module imports nothing else of permlab, so the sign draws
of `matrices`, the minor lattice and the engines all load the one library.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

_KERNEL_SOURCE = Path(__file__).with_name("_kernels.c")
_KERNEL_CC = ("gcc", "-O2", "-shared", "-fPIC")

_addr, _i64 = ctypes.c_void_p, ctypes.c_int64
# Each export of `_kernels.c`, as (argtypes, restype); every kernel is bound
# from this one table.
_SIGNATURES = {
    "add_level": ([_addr, _addr, _i64, _addr, _i64, _i64, _addr, _addr], _i64),
    "glynn": ([_addr, _i64, _i64, _addr], None),
    "glynn_cofactors": ([_addr, _i64, _i64, _addr], None),
    "ryser_mod": ([_addr, _i64, _i64, _i64, _addr], None),
    "naive_odd": ([_addr, _i64], _i64),
    "sign_draws": ([_addr, _i64, _i64, _addr], None),
}


@functools.cache
def _kernels() -> ctypes.CDLL:
    """The compiled kernels, compiled once per cache and loaded once per process.

    The library is compiled under a temporary name in the cache directory and
    renamed into place, so processes that race to build it all end up loading
    one complete file.  Kernels take raw addresses of C-contiguous arrays
    (ndpointer's checks cost more than a small level's work), and an address
    handed to a kernel comes from a name bound in the calling frame: in
    `f(np.ascontiguousarray(x).ctypes.data)` a copy is freed before f runs.
    """
    source = _KERNEL_SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(_KERNEL_CC).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")) / "permlab"
    lib = cache / f"_kernels-{digest}.so"
    if not lib.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache, prefix=".kernels-", suffix=".tmp")
        except OSError as exc:
            raise OSError(f"cannot write the kernel cache {cache}: {exc}") from None
        os.close(fd)
        try:
            subprocess.run([*_KERNEL_CC, "-x", "c", "-", "-o", tmp],
                           input=source, capture_output=True, check=True)
        except FileNotFoundError:
            raise OSError(f"the permlab kernels need the C compiler {_KERNEL_CC[0]},"
                          " which is not on PATH") from None
        except subprocess.CalledProcessError as exc:
            raise OSError(f"{_KERNEL_CC[0]} failed to compile {_KERNEL_SOURCE}:"
                          f" {exc.stderr.decode(errors='replace').strip()}") from None
        else:
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    kernels = ctypes.CDLL(str(lib))
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(kernels, name)
        fn.argtypes, fn.restype = argtypes, restype
    return kernels
