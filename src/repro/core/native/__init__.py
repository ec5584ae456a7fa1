"""Compiled per-cohort wave kernel (cffi + C) with import-time fallback.

This package surfaces ``engine="compiled"``: a single C pass per cohort
that fuses the per-wave hot path of the lockstep engine — threshold
test, exact scaled-integer coin split, membership probe, sigma-ranked
top-(beta+1) forwarding selection, and delivery scatter with
``minimum``-folds — over the caller's existing struct-of-arrays
buffers.  The numpy batched engine stays verbatim as the differential
oracle; every observable here is bit-identical to it and to the scalar
interpreter.

C ABI (``_wave_kernel.c`` / ``_build.CDEF``, version ``ABI_VERSION``)
=====================================================================

``repro_play_cohort`` plays one cohort of coin-dropping games against a
single CSR and returns ``0`` on success or ``1`` on allocation failure
(on failure every output buffer is untouched or rolled back and the
caller must fall back to the numpy engine).

Array layouts (all ``int64`` little-endian C-contiguous unless noted):

- ``offsets[n+1]`` / ``targets[m]`` — the CSR adjacency, targets sorted
  ascending within each row (the kernel's membership probes and the
  deterministic forwarding tie-break both rely on row order only for
  reproducibility of iteration, correctness needs no sorting).
- ``roots[num_games]`` — one game per root; game order is roots order
  and every per-game output array below is indexed by it.
- ``out_layer[n]`` (float64) / ``out_count[n]`` — fold accumulators
  over the vertex universe: provable layers ``<= clip`` are min-folded
  into ``out_layer`` and counted into ``out_count`` exactly as the
  scalar ``play_coin_game`` folds them one game at a time.
- ``reads`` / ``writes`` / ``super_iters`` / ``edges_seen`` /
  ``mem_counts`` / ``proof_counts`` (``[num_games]``) and
  ``ejected[num_games]`` (uint8) — per-game observables, zeroed at
  ejected games.

Ownership: every buffer above is allocated by the *caller* (numpy
arrays passed through ``ffi.from_buffer``) and only written by the
kernel.  The three arena outputs — ``mem_out`` (explored vertices,
game-major, exploration order), ``proof_u_out`` / ``proof_l_out``
(clipped proof entries, same layout) — are malloc'd by the *kernel*,
handed to the caller through out-pointers with their lengths in
``arena_lens[2]``, and must be released with ``repro_buffers_free``
(the wrapper copies them into Python record tuples and frees them
before returning).

Ejection contract: any game whose exact coin arithmetic would escalate
its scale beyond ``scale_cap`` (the int64 word budget) is ejected
mid-game — its members are rolled back out of the arena, all its
observables and fold contributions are zeroed, and its index is flagged
in ``ejected``.  The caller replays exactly those games through the
scalar bigint/Fraction escape hatch, so results stay bit-for-bit exact.
The incremental-lcm overflow guard is division-based and produces the
same ejection set as the lockstep engine's ``_escalate`` regardless of
forwarder iteration order.

Why no per-cohort GIL release is needed: cffi already drops the GIL for
the duration of every C call, the kernel never calls back into Python,
and one call covers an entire cohort (thousands of games), so the
no-Python window is a single long, bounded span — there is nothing left
to release by hand, and the process pool's worker processes sidestep
the question entirely.

Loading and fallback
====================

The kernel is compiled at build time (setup.py ``cffi_modules``) or
lazily at first use (direct ``gcc -shared`` + ``dlopen``, cached under
``$REPRO_NATIVE_CACHE``).  :func:`available` gates dispatch:
``engine="compiled"`` degrades to ``"batched"`` with a one-time warning
when the kernel cannot be loaded, ``REPRO_NATIVE_DISABLE=1`` forces
that degradation, and a corrupt or missing shared object only flips
:func:`available` to ``False`` — it never breaks ``import repro``.
"""

from __future__ import annotations

import math
import os
import time
import warnings

import numpy as np

from repro.core import batched_games
from repro.core.batched_games import BatchedGamesInfo

ABI_VERSION = 1

_ffi = None
_lib = None
_load_error: BaseException | None = None
_load_attempted = False
_warned_fallback = False


def _load():
    """Attempt (once) to load the compiled kernel; never raises."""
    global _ffi, _lib, _load_error, _load_attempted
    if _load_attempted:
        return
    _load_attempted = True
    if os.environ.get("REPRO_NATIVE_DISABLE", "").strip():
        _load_error = RuntimeError("disabled via REPRO_NATIVE_DISABLE")
        return
    try:
        from repro.core.native import _build

        ffi, lib = _build.load()
        got = int(lib.repro_abi_version())
        if got != ABI_VERSION:
            raise RuntimeError(
                f"wave kernel ABI mismatch: built {got}, expected "
                f"{ABI_VERSION}"
            )
        _ffi, _lib = ffi, lib
    except BaseException as exc:  # degrade, never break `import repro`
        _load_error = exc


def available() -> bool:
    """True when the compiled wave kernel is loadable on this host."""
    _load()
    return _lib is not None


def load_error() -> BaseException | None:
    """The exception that made :func:`available` false, if any."""
    _load()
    return _load_error


def warn_fallback(context: str) -> None:
    """One-time warning that ``engine="compiled"`` degraded to batched."""
    global _warned_fallback
    if _warned_fallback:
        return
    _warned_fallback = True
    warnings.warn(
        f"compiled wave kernel unavailable ({load_error()!r}); "
        f"{context} falling back to engine='batched'",
        RuntimeWarning,
        stacklevel=3,
    )


def _reset_for_tests() -> None:
    """Forget loader state (tests re-drive the gate with env patched)."""
    global _ffi, _lib, _load_error, _load_attempted, _warned_fallback
    _ffi = None
    _lib = None
    _load_error = None
    _load_attempted = False
    _warned_fallback = False


def _list_records_to_raw(info: BatchedGamesInfo) -> BatchedGamesInfo:
    """Flatten list-form records into the ``raw_records`` array tuple
    (used when a cohort falls back to the numpy oracle)."""
    mems: list[int] = []
    pus: list[int] = []
    pls: list[int] = []
    mem_counts: list[int] = []
    proof_counts: list[int] = []
    for rec in info.records:
        if rec is None:
            mem_counts.append(0)
            proof_counts.append(0)
            continue
        mems.extend(rec[0])
        mem_counts.append(len(rec[0]))
        pus.extend(u for u, __ in rec[1])
        pls.extend(lay for __, lay in rec[1])
        proof_counts.append(len(rec[1]))
    return info._replace(records=(
        np.asarray(mems, dtype=np.int64),
        np.asarray(pus, dtype=np.int64),
        np.asarray(pls, dtype=np.int64),
        np.asarray(mem_counts, dtype=np.int64),
        np.asarray(proof_counts, dtype=np.int64),
    ))


def play_games_compiled(
    offsets: np.ndarray,
    targets: np.ndarray,
    roots: np.ndarray,
    *,
    x: int,
    beta: int,
    clip: int,
    horizon: int,
    scale: int | None,
    out_layer: np.ndarray,
    out_count: np.ndarray,
    want_records: bool = False,
    raw_records: bool = False,
    phases: dict | None = None,
    transpose_pos: np.ndarray | None = None,
    arena_hint: list | None = None,
) -> BatchedGamesInfo:
    """Drop-in for :func:`repro.core.batched_games.play_games_batched`.

    Same signature, same :class:`BatchedGamesInfo` shape, bit-identical
    observables.  ``transpose_pos`` / ``arena_hint`` are accepted for
    signature compatibility and ignored — the fused kernel has no numpy
    scatter to transpose and sizes its own arenas.  ``phases`` gains a
    single ``native`` bucket: fusing removes the explore/forward/fold
    phase boundaries by construction.

    ``raw_records=True`` (with ``want_records``) skips the per-game
    python-list marshalling: ``records`` is instead one flat tuple
    ``(mem, proof_u, proof_layer, mem_counts, proof_counts)`` of int64
    arrays — game ``g``'s members/proof are the ``counts``-delimited
    segments (empty at ejected games).  The message fabric consumes
    this directly: it remaps ids and filters invalid games vectorized,
    so list records for games it will discard are never built.
    """
    del transpose_pos, arena_hint
    _load()
    if _lib is None:
        raise RuntimeError(
            "compiled wave kernel unavailable"
        ) from _load_error

    roots = np.ascontiguousarray(roots, dtype=np.int64)
    num_games = len(roots)
    if not num_games:
        empty = np.empty(0, dtype=np.int64)
        if not want_records:
            recs = None
        elif raw_records:
            recs = tuple(empty.copy() for __ in range(5))
        else:
            recs = []
        return BatchedGamesInfo(
            empty, empty.copy(), recs,
            empty.copy(), empty.copy(), empty.copy(),
        )

    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    n = len(offsets) - 1

    # Exact word-budget bookkeeping, replicated from _Lockstep.__init__
    # in Python-int arithmetic (x may exceed int64 ranges mid-formula).
    bp1 = beta + 1
    # Dynamic lookup: tests shrink batched_games.SCALE_LIMIT to force
    # ejections, and both engines must see the same word budget.
    scale_cap = batched_games.SCALE_LIMIT // max(1, x * (beta + 2))
    if scale is not None and scale <= scale_cap:
        init_scale = scale
    else:
        base = math.lcm(*range(1, bp1 + 1)) if beta >= 1 else 1
        headroom = scale_cap // (base * base) if base > 1 else 0
        init = 1
        while init * base <= headroom:
            init *= base
        init_scale = init
    if scale_cap < 1:
        # Every game needs bigint coins from hop zero; the batched
        # engine's all-ejected early path is already exact — use it.
        from repro.core.batched_games import play_games_batched

        info = play_games_batched(
            offsets, targets, roots, x=x, beta=beta, clip=clip,
            horizon=horizon, scale=scale, out_layer=out_layer,
            out_count=out_count, want_records=want_records, phases=phases,
        )
        if want_records and raw_records:
            info = _list_records_to_raw(info)
        return info

    max_super = min(x * x, n + 2)

    ffi, lib = _ffi, _lib
    reads = np.zeros(num_games, dtype=np.int64)
    writes = np.zeros(num_games, dtype=np.int64)
    super_iters = np.zeros(num_games, dtype=np.int64)
    edges_seen = np.zeros(num_games, dtype=np.int64)
    ejected_flags = np.zeros(num_games, dtype=np.uint8)
    mem_counts = np.zeros(num_games, dtype=np.int64)
    proof_counts = np.zeros(num_games, dtype=np.int64)
    mem_pp = ffi.new("int64_t **")
    pu_pp = ffi.new("int64_t **")
    pl_pp = ffi.new("int64_t **")
    arena_lens = ffi.new("int64_t[2]")

    def wbuf(arr, ctype="int64_t[]"):
        return ffi.from_buffer(ctype, arr, require_writable=True)

    t0 = time.perf_counter() if phases is not None else 0.0
    rc = lib.repro_play_cohort(
        ffi.from_buffer("int64_t[]", offsets),
        ffi.from_buffer("int64_t[]", targets),
        n,
        ffi.from_buffer("int64_t[]", roots),
        num_games,
        x, beta, clip, horizon,
        max_super, init_scale, scale_cap,
        wbuf(out_layer, "double[]"),
        wbuf(out_count),
        wbuf(reads), wbuf(writes),
        wbuf(super_iters), wbuf(edges_seen),
        wbuf(ejected_flags, "uint8_t[]"),
        1 if want_records else 0,
        wbuf(mem_counts), wbuf(proof_counts),
        mem_pp, pu_pp, pl_pp, arena_lens,
    )
    if phases is not None:
        phases["native"] = (
            phases.get("native", 0.0) + time.perf_counter() - t0
        )
    if rc != 0:
        # Allocation failure mid-cohort: outputs were rolled back, so
        # the numpy oracle can simply take over this cohort.
        from repro.core.batched_games import play_games_batched

        info = play_games_batched(
            offsets, targets, roots, x=x, beta=beta, clip=clip,
            horizon=horizon, scale=scale, out_layer=out_layer,
            out_count=out_count, want_records=want_records, phases=phases,
        )
        if want_records and raw_records:
            info = _list_records_to_raw(info)
        return info

    records = None
    if want_records:
        def arena(pp, length):
            if not length:
                return np.empty(0, dtype=np.int64)
            return np.frombuffer(
                ffi.buffer(pp[0], length * 8), dtype=np.int64
            )

        mem_flat = arena(mem_pp, arena_lens[0])
        pu_flat = arena(pu_pp, arena_lens[1])
        pl_flat = arena(pl_pp, arena_lens[1])
        if raw_records:
            # Copies: the frombuffer views die with repro_buffers_free.
            records = (
                mem_flat.copy(), pu_flat.copy(), pl_flat.copy(),
                mem_counts, proof_counts,
            )
        else:
            mem_ends = np.cumsum(mem_counts)
            proof_ends = np.cumsum(proof_counts)
            records = []
            mo = 0
            po = 0
            for g in range(num_games):
                if ejected_flags[g]:
                    records.append(None)
                    continue
                me = int(mem_ends[g])
                pe = int(proof_ends[g])
                proof = list(zip(
                    pu_flat[po:pe].tolist(), pl_flat[po:pe].tolist()
                ))
                records.append(
                    (mem_flat[mo:me].tolist(), proof, int(reads[g]),
                     int(writes[g]))
                )
                mo = me
                po = pe
    lib.repro_buffers_free(mem_pp[0])
    lib.repro_buffers_free(pu_pp[0])
    lib.repro_buffers_free(pl_pp[0])

    return BatchedGamesInfo(
        reads=reads,
        writes=writes,
        records=records,
        super_iterations=super_iters,
        edges_seen=edges_seen,
        ejected=np.nonzero(ejected_flags)[0].astype(np.int64),
    )
