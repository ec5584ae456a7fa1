"""Compiled per-cohort wave kernel (cffi + C) with import-time fallback.

This package surfaces ``engine="compiled"``: a single C pass per cohort
that fuses the per-wave hot path of the lockstep engine — threshold
test, exact scaled-integer coin split, membership probe, sigma-ranked
top-(beta+1) forwarding selection, and delivery scatter with
``minimum``-folds — over the caller's existing struct-of-arrays
buffers.  The numpy batched engine stays verbatim as the differential
oracle; every observable here is bit-identical to it and to the scalar
interpreter.

C ABI (``_wave_kernel.c`` / ``_build.CDEF``, version ``ABI_VERSION`` = 2)
=========================================================================

``repro_play_cohort`` plays one cohort of coin-dropping games against a
single CSR over int64 coins.  ``repro_play_cohort_wide`` is the same
game loop (``_wave_cohort.h``, compiled once per coin width) over
``__int128`` coins; it takes the same arguments except that its scale
cap arrives exactly, as two 64-bit halves ``scale_cap_hi`` (int64) and
``scale_cap_lo`` (uint64), cap = hi·2^64 + lo.  A compiler without
``__int128`` builds it as a stub that ejects every game.

Both return ``0`` on success or ``1`` on allocation failure, and both
report through ``games_done`` how many games finished.  Partial
completion: games ``[0, games_done)`` are complete — per-game outputs,
fold contributions and arena segments — and games from ``games_done``
on are untouched (their fold contributions were never made, since a
game folds all or nothing).  The arenas of the finished games are
handed over on failure too.  After a failed int64 call the wrapper
plays ``roots[games_done:]`` on the numpy engine; after a failed wide
call it flags them ejected, for the scalar replay.

Array layouts (all ``int64`` little-endian C-contiguous unless noted):

- ``offsets[n+1]`` / ``targets[m]`` — the CSR adjacency, targets
  strictly ascending within each row.  This is a correctness
  precondition: a hub's forwarding set ranks all non-members equal
  and breaks their ties by id, and when its row holds at least β+1 of
  them the kernel takes the first β+1 in row order instead of ranking
  the row.  An unsorted row silently changes forwarding sets, so every
  CSR producer that feeds the fleet player is tested for sorted rows.
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

Ownership: every buffer above (and ``games_done``) is allocated by the
*caller* (numpy arrays passed through ``ffi.from_buffer``) and only
written by the kernel.  The three arena outputs — ``mem_out`` (explored
vertices, game-major, exploration order), ``proof_u_out`` /
``proof_l_out`` (clipped proof entries, same layout) — are malloc'd by
the *kernel*, handed to the caller through out-pointers with their
lengths in ``arena_lens[2]``, and must be released with
``repro_buffers_free`` (the wrapper copies them into the flat
``records`` arrays and frees them before returning).

Ejection contract: any game whose exact coin arithmetic would escalate
its scale beyond ``scale_cap`` is ejected mid-game — its members are
rolled back out of the arena, all its observables and fold
contributions are zeroed, and its index is flagged in ``ejected``.  The
int64 cap is ``SCALE_LIMIT // (x·(β+2))`` and the wide one
``WIDE_SCALE_LIMIT // (x·(β+2))`` (both in
:mod:`repro.core.batched_games`), so every amount stays below 2^61 or
2^125.  Replays go down three tiers, each exact: the int64 pass plays
every game, :func:`play_games_wide` replays its ejections from the same
starting scale, and the scalar bigint/Fraction escape hatch replays
what the wide pass ejects.  The incremental-lcm overflow guard is
division-based and produces the same ejection set as the lockstep
engine's ``_escalate`` regardless of forwarder iteration order.

Threads and the GIL: cffi drops the GIL for the whole of every C call,
the kernel never calls back into Python, and it keeps no global or
static mutable state — every buffer it touches is either passed in by
the caller or malloc'd for that one call.  One call covers an entire
slice of a round (hundreds to thousands of games), so the no-Python
window is a single long, bounded span.  That is what the fleet
player's thread fan-out relies on
(:func:`repro.core.columnar_rounds.play_fleet`): threads play disjoint
game slices concurrently against one shared read-only CSR, each into
its own ``out_layer``/``out_count`` accumulators and its own per-slice
outputs, so their C calls run truly in parallel with nothing to lock.

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
import threading
import time
import warnings

import numpy as np

from repro.core import batched_games
from repro.core.batched_games import BatchedGamesInfo

ABI_VERSION = 2

_ffi = None
_lib = None
_load_error: BaseException | None = None
_load_attempted = False
_warned_fallback = False
_LOAD_LOCK = threading.Lock()


def _load():
    """Attempt (once) to load the compiled kernel; never raises.

    Serialized by a lock so a first call racing in from several threads
    cannot observe the half-done load as a failure.
    """
    with _LOAD_LOCK:
        _load_locked()


def _load_locked():
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


def _init_scale(x: int, beta: int, scale: int | None, scale_cap: int) -> int:
    """The int64 pass's starting scale, replicated from
    ``_Lockstep.__init__`` in Python-int arithmetic (x may exceed int64
    ranges mid-formula)."""
    if scale is not None and scale <= scale_cap:
        return scale
    base = math.lcm(*range(1, beta + 2)) if beta >= 1 else 1
    headroom = scale_cap // (base * base) if base > 1 else 0
    init = 1
    while init * base <= headroom:
        init *= base
    return init


def _all_ejected(num_games: int, want_records: bool) -> BatchedGamesInfo:
    """Outputs of ``num_games`` games that all go to the next tier."""
    zeros = np.zeros(num_games, dtype=np.int64)
    return BatchedGamesInfo(
        reads=zeros,
        writes=zeros.copy(),
        records=batched_games.empty_records(num_games)
        if want_records else None,
        super_iterations=zeros.copy(),
        edges_seen=zeros.copy(),
        ejected=np.arange(num_games, dtype=np.int64),
    )


def _play_native(
    entry, cap_args: tuple, offsets, targets, roots, *, x, beta, clip,
    horizon, init_scale, out_layer, out_count, want_records, phases,
) -> BatchedGamesInfo:
    """One cohort call of a kernel entry point.

    Returns the outputs of the games the kernel finished: all of them,
    or on allocation failure (``rc=1``) the prefix it reports done.
    """
    ffi = _ffi
    num_games = len(roots)
    n = len(offsets) - 1
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
    games_done = ffi.new("int64_t *")

    def wbuf(arr, ctype="int64_t[]"):
        return ffi.from_buffer(ctype, arr, require_writable=True)

    t0 = time.perf_counter() if phases is not None else 0.0
    entry(
        ffi.from_buffer("int64_t[]", offsets),
        ffi.from_buffer("int64_t[]", targets),
        n,
        ffi.from_buffer("int64_t[]", roots),
        num_games,
        x, beta, clip, horizon,
        min(x * x, n + 2),  # the super-iteration cap
        init_scale, *cap_args,
        wbuf(out_layer, "double[]"),
        wbuf(out_count),
        wbuf(reads), wbuf(writes),
        wbuf(super_iters), wbuf(edges_seen),
        wbuf(ejected_flags, "uint8_t[]"),
        1 if want_records else 0,
        wbuf(mem_counts), wbuf(proof_counts),
        mem_pp, pu_pp, pl_pp, arena_lens, games_done,
    )
    if phases is not None:
        phases["native"] = (
            phases.get("native", 0.0) + time.perf_counter() - t0
        )
    done = games_done[0]

    records = None
    if want_records:
        def arena(pp, length):
            # A copy: the kernel's buffer dies with repro_buffers_free.
            if not length:
                return np.empty(0, dtype=np.int64)
            return np.frombuffer(
                ffi.buffer(pp[0], length * 8), dtype=np.int64
            ).copy()

        records = (
            arena(mem_pp, arena_lens[0]),
            arena(pu_pp, arena_lens[1]),
            arena(pl_pp, arena_lens[1]),
            mem_counts[:done],
            proof_counts[:done],
        )
    _lib.repro_buffers_free(mem_pp[0])
    _lib.repro_buffers_free(pu_pp[0])
    _lib.repro_buffers_free(pl_pp[0])

    return BatchedGamesInfo(
        reads=reads[:done],
        writes=writes[:done],
        records=records,
        super_iterations=super_iters[:done],
        edges_seen=edges_seen[:done],
        ejected=np.nonzero(ejected_flags[:done])[0].astype(np.int64),
    )


def _require_kernel() -> None:
    _load()
    if _lib is None:
        raise RuntimeError(
            "compiled wave kernel unavailable"
        ) from _load_error


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
    phases: dict | None = None,
    transpose_pos: np.ndarray | None = None,
    arena_hint: list | None = None,
) -> BatchedGamesInfo:
    """Drop-in for :func:`repro.core.batched_games.play_games_batched`.

    Same signature, same :class:`BatchedGamesInfo` shape — ``records``
    is the same flat array tuple, copied straight out of the kernel's
    arenas — and bit-identical observables, ejection set included.
    ``transpose_pos`` / ``arena_hint`` are accepted for signature
    compatibility and ignored: the fused kernel has no numpy scatter to
    transpose and sizes its own arenas.  ``phases`` gains a single
    ``native`` bucket: fusing removes the explore/forward/fold phase
    boundaries by construction.
    """
    del transpose_pos, arena_hint
    _require_kernel()
    roots = np.ascontiguousarray(roots, dtype=np.int64)
    if not len(roots):
        return _all_ejected(0, want_records)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    game = dict(x=x, beta=beta, clip=clip, horizon=horizon)

    # Dynamic lookup: tests shrink batched_games.SCALE_LIMIT to force
    # ejections, and both engines must see the same word budget.
    scale_cap = batched_games.SCALE_LIMIT // max(1, x * (beta + 2))
    if scale_cap < 1:
        # Every game needs bigint coins from hop zero; the batched
        # engine's all-ejected early path is already exact — use it.
        return batched_games.play_games_batched(
            offsets, targets, roots, scale=scale, out_layer=out_layer,
            out_count=out_count, want_records=want_records, phases=phases,
            **game,
        )
    info = _play_native(
        _lib.repro_play_cohort, (scale_cap,), offsets, targets, roots,
        init_scale=_init_scale(x, beta, scale, scale_cap),
        out_layer=out_layer, out_count=out_count,
        want_records=want_records, phases=phases, **game,
    )
    done = len(info.reads)
    if done < len(roots):
        # Allocation failure mid-cohort: the finished games are folded
        # and kept; the numpy oracle plays the rest into the same
        # accumulators.
        rest = batched_games.play_games_batched(
            offsets, targets, roots[done:], scale=scale,
            out_layer=out_layer, out_count=out_count,
            want_records=want_records, phases=phases, **game,
        )
        info = batched_games.join_infos([info, rest])
    return info


def play_games_wide(
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
    phases: dict | None = None,
) -> BatchedGamesInfo:
    """The second tier: replay games over ``__int128`` coins.

    Meant for the games :func:`play_games_compiled` ejected.  Takes the
    same arguments and returns the same outputs, folded into the same
    accumulators: the games start from the int64 pass's scale and may
    escalate up to ``WIDE_SCALE_LIMIT // (x·(β+2))``
    (:data:`repro.core.batched_games.WIDE_SCALE_LIMIT`, read at call
    time).  Games that outgrow that budget too come back in ``ejected``
    with zeroed outputs and empty record segments, for the caller's
    scalar replay.  So do the games an allocation failure leaves
    unplayed, and every game when ``x·(β+2)`` alone outgrows either
    budget.  Its time books under ``phases["native"]``.
    """
    _require_kernel()
    roots = np.ascontiguousarray(roots, dtype=np.int64)
    per_coin = max(1, x * (beta + 2))
    scale_cap = batched_games.SCALE_LIMIT // per_coin
    wide_cap = batched_games.WIDE_SCALE_LIMIT // per_coin
    if not len(roots) or scale_cap < 1 or wide_cap < 1:
        return _all_ejected(len(roots), want_records)
    info = _play_native(
        _lib.repro_play_cohort_wide,
        (wide_cap >> 64, wide_cap & ((1 << 64) - 1)),
        np.ascontiguousarray(offsets, dtype=np.int64),
        np.ascontiguousarray(targets, dtype=np.int64),
        roots, x=x, beta=beta, clip=clip, horizon=horizon,
        init_scale=_init_scale(x, beta, scale, scale_cap),
        out_layer=out_layer, out_count=out_count,
        want_records=want_records, phases=phases,
    )
    done = len(info.reads)
    if done < len(roots):
        info = batched_games.join_infos(
            [info, _all_ejected(len(roots) - done, want_records)]
        )
    return info
