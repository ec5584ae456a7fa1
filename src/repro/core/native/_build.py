"""Build glue for the native wave kernel — two compilation paths.

1. **Packaged (API mode).**  ``setup.py`` lists
   ``repro.core.native._build:ffibuilder`` under ``cffi_modules``; an
   installed build ships ``repro.core.native._wave_kernel_cffi`` as a
   real extension module and the loader imports it directly.
2. **Lazy (ABI mode).**  Source checkouts (tier-1 runs with
   ``PYTHONPATH=src``) compile the self-contained C sources with
   direct ``gcc -O2`` calls at first import — the two coin passes as
   two objects side by side, linked with ``-shared`` — and ``dlopen``
   the result: no setuptools machinery, no Python headers, just libc.
   The shared object is cached under ``$REPRO_NATIVE_CACHE`` (default
   ``~/.cache/repro/native``) keyed by a hash of the C sources
   (:data:`SOURCES`), the declared ABI and the compile flags, so
   rebuilds happen only when the kernel or the flags change;
   concurrent builders race benignly via atomic ``os.replace``.

Both paths compile the same ``_wave_kernel.c`` (which includes the
game loop, ``_wave_cohort.h``, once per coin width) against the same
``CDEF``; :func:`load` prefers the packaged module and falls back to
the lazy build.  ``REPRO_NATIVE_SANITIZE=1`` skips the packaged module
and makes the lazy build an ASan/UBSan one (:data:`SANITIZE_FLAGS`);
the flags are part of the cache key, so sanitized and plain objects
never collide.  A sanitized object only loads into a process that
preloads the sanitizer runtimes::

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
from concurrent.futures import ThreadPoolExecutor
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
int repro_play_cohort_wide(
    const int64_t *offsets, const int64_t *targets, int64_t n,
    const int64_t *roots, int64_t num_games,
    int64_t x, int64_t beta, int64_t clip, int64_t horizon,
    int64_t max_super, int64_t init_scale,
    int64_t scale_cap_hi, uint64_t scale_cap_lo,
    double *out_layer, int64_t *out_count,
    int64_t *reads, int64_t *writes,
    int64_t *super_iters, int64_t *edges_seen, uint8_t *ejected,
    int64_t want_records,
    int64_t *mem_counts, int64_t *proof_counts,
    int64_t **mem_out, int64_t **proof_u_out, int64_t **proof_l_out,
    int64_t *arena_lens, int64_t *games_done);
void repro_buffers_free(int64_t *p);
int64_t repro_abi_version(void);
"""

_SOURCE_DIR = Path(__file__).parent
_SOURCE_PATH = _SOURCE_DIR / "_wave_kernel.c"
# Every file the kernel is compiled from: the translation unit and the
# game loop it includes once per coin width.
SOURCES = (_SOURCE_PATH, _SOURCE_DIR / "_wave_cohort.h")


def _source() -> str:
    return _SOURCE_PATH.read_text()


def _make_ffibuilder():
    """API-mode builder for setup.py ``cffi_modules`` (requires cffi)."""
    import cffi

    builder = cffi.FFI()
    builder.cdef(CDEF)
    builder.set_source(
        "repro.core.native._wave_kernel_cffi", _source(),
        include_dirs=[str(_SOURCE_DIR)],
        extra_compile_args=["-O2"],
    )
    return builder


# setup.py resolves this attribute lazily at sdist/wheel build time; a
# missing cffi there fails the *packaged* path only (the lazy path never
# reads it).
try:  # pragma: no cover - exercised by setup.py builds, not tier-1
    ffibuilder = _make_ffibuilder()
except Exception:  # pragma: no cover
    ffibuilder = None


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
    """Cache location of the ABI-mode shared object for these sources."""
    texts = (path.read_text() for path in SOURCES)
    key = "\x00".join((CDEF, *texts, *compile_flags()))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return cache_dir() / f"_wave_kernel-{digest}.so"


def _build_shared_object(path: Path) -> None:
    """Compile the two coin passes as two objects at once, then link.

    Each pass is about half of the compile time, so building them side
    by side keeps a cold first import close to a one-pass build.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    flags = compile_flags()

    def gcc(*args: str) -> None:
        subprocess.run(
            ["gcc", *flags, *args], check=True, capture_output=True, text=True,
        )

    def compile_pass(coin_pass: int, obj: str) -> None:
        gcc("-fPIC", "-c", f"-DREPRO_COIN_PASSES={coin_pass}",
            str(_SOURCE_PATH), "-o", obj)

    fd, tmp = tempfile.mkstemp(
        suffix=".so", prefix="_wave_kernel-", dir=str(path.parent)
    )
    os.close(fd)
    try:
        with tempfile.TemporaryDirectory(dir=str(path.parent)) as objdir:
            objects = [os.path.join(objdir, f"pass{p}.o") for p in (1, 2)]
            with ThreadPoolExecutor(max_workers=2) as compilers:
                list(compilers.map(compile_pass, (1, 2), objects))
            gcc("-shared", *objects, "-o", tmp)
        os.replace(tmp, path)  # atomic: concurrent builders race benignly
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load():
    """``(ffi, lib)`` for the wave kernel; raises on any failure.

    Tries the packaged API-mode extension first (unless a sanitized
    build is asked for), then the cached (or freshly gcc-compiled)
    ABI-mode shared object.
    """
    if not _sanitize():
        try:
            from repro.core.native import _wave_kernel_cffi  # type: ignore

            return _wave_kernel_cffi.ffi, _wave_kernel_cffi.lib
        except ImportError:
            pass

    import cffi

    path = so_path()
    if not path.exists():
        _build_shared_object(path)
    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    lib = ffi.dlopen(str(path))
    return ffi, lib
