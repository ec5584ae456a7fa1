"""Build glue for the native wave kernel: one lazy gcc build.

The kernel is compiled at first use with one direct ``gcc -O2 -shared``
call on the self-contained ``_wave_kernel.c`` and the result is
``dlopen``-ed through cffi's ABI mode against :data:`CDEF`: no
setuptools machinery, no Python headers, just libc.  Source checkouts
and installed packages load it the same way.  The shared object is
cached under ``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro/native``)
keyed by a hash of the C source, the declared ABI and the compile
flags, so rebuilds happen only when the kernel or the flags change;
concurrent builders race benignly via atomic ``os.replace``.

``REPRO_NATIVE_SANITIZE=1`` makes the build an ASan/UBSan one
(:data:`SANITIZE_FLAGS`); the flags are part of the cache key, so
sanitized and plain objects never collide.  A sanitized object only
loads into a process that preloads the sanitizer runtimes::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) \
                $(gcc -print-file-name=libubsan.so)" \
    ASAN_OPTIONS=detect_leaks=0 REPRO_NATIVE_SANITIZE=1 python ...

Without them the ``dlopen`` fails and the kernel degrades like any
other load failure.  Every failure mode (no gcc, read-only cache, corrupt
cached object) raises out of :func:`load` and is caught by the package
loader, which degrades to ``native.available() == False``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

CDEF = """
int repro_play_cohort(
    const int64_t *offsets, const int64_t *targets, int64_t n,
    const int64_t *roots, int64_t num_games,
    int64_t x, int64_t beta, int64_t clip, int64_t horizon,
    int64_t max_super, int64_t init_scale, int64_t scale_cap,
    double *out_layer, int64_t *out_count,
    int64_t *reads, int64_t *writes,
    int64_t *super_iters, int64_t *edges_seen, uint8_t *ejected,
    int64_t want_records,
    int64_t *mem_counts, int64_t *proof_counts,
    int64_t **mem_out, int64_t **proof_u_out, int64_t **proof_l_out,
    int64_t *arena_lens, int64_t *games_done);
void repro_buffers_free(int64_t *p);
int64_t repro_abi_version(void);
int repro_cover_free_round(
    const int64_t *offsets, const int64_t *targets, int64_t n,
    const int64_t *vertices, int64_t k, const int64_t *labels,
    const int64_t *colors, int64_t d1, int64_t q, int64_t bound,
    int64_t *out);
int repro_kw_reduce(
    const int64_t *offsets, const int64_t *targets, int64_t n,
    const int64_t *vertices, int64_t k, const int64_t *labels,
    int64_t *colors, int64_t dp1, int64_t *num_colors,
    int64_t *local_rounds);
int repro_recolor_walk(
    const int64_t *offsets, const int64_t *targets, int64_t n,
    const int64_t *order, int64_t beta, int64_t lowest, int64_t *colors);
int repro_core_peel(
    const int64_t *offsets, const int64_t *targets, int64_t n,
    int64_t *cores);
"""

_SOURCE_PATH = Path(__file__).parent / "_wave_kernel.c"


def _source() -> str:
    return _SOURCE_PATH.read_text()


def cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_CACHE", "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "native"


SANITIZE_FLAGS = (
    "-O1", "-g", "-fsanitize=address,undefined",
    "-fno-sanitize-recover=undefined",
)


def _sanitize() -> bool:
    return bool(os.environ.get("REPRO_NATIVE_SANITIZE", "").strip())


def compile_flags() -> tuple[str, ...]:
    """Optimization/instrumentation flags of the lazy gcc build."""
    return SANITIZE_FLAGS if _sanitize() else ("-O2",)


def so_path() -> Path:
    """Cache location of the ABI-mode shared object for this source."""
    key = "\x00".join((CDEF, _source(), *compile_flags()))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return cache_dir() / f"_wave_kernel-{digest}.so"


def _build_shared_object(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        suffix=".so", prefix="_wave_kernel-", dir=str(path.parent)
    )
    os.close(fd)
    try:
        subprocess.run(
            ["gcc", *compile_flags(), "-fPIC", "-shared",
             str(_SOURCE_PATH), "-o", tmp],
            check=True, capture_output=True, text=True,
        )
        os.replace(tmp, path)  # atomic: concurrent builders race benignly
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load():
    """``(ffi, lib)`` for the wave kernel from the cached (or freshly
    gcc-compiled) shared object; raises on any failure."""
    import cffi

    path = so_path()
    if not path.exists():
        _build_shared_object(path)
    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    lib = ffi.dlopen(str(path))
    return ffi, lib
