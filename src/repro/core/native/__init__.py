"""Compiled per-cohort wave kernel (cffi + C) with import-time fallback.

This package surfaces ``engine="compiled"``: a single C pass per cohort
that fuses the per-wave hot path of the lockstep engine — threshold
test, exact scaled-integer coin split, membership probe, sigma-ranked
top-(beta+1) forwarding selection, and delivery scatter with
``minimum``-folds — over the caller's existing struct-of-arrays
buffers, plus the coloring tail's three sequential loops (ABI 4 below;
ABI 6 runs two of them on one layer of the whole graph's CSR) and the
k-core peel behind :func:`repro.graphs.arboricity.degeneracy` (ABI 5).
The numpy batched engine stays verbatim as the differential oracle;
every observable here is bit-identical to it and to the scalar
interpreter.

C ABI (``_wave_kernel.c`` / ``_build.CDEF``, version ``ABI_VERSION`` = 6)
=========================================================================

``repro_play_cohort`` plays one cohort of coin-dropping games against a
single CSR over int64 coins.  It returns ``0`` on success or ``1`` on
allocation failure, and reports through ``games_done`` how many games
finished.  Partial completion: games ``[0, games_done)`` are complete —
per-game outputs, fold contributions and arena segments — and games
from ``games_done`` on are untouched (their fold contributions were
never made, since a game folds all or nothing).  The arenas of the
finished games are handed over on failure too.  After a failed call
the wrapper flags ``roots[games_done:]`` ejected, with zeroed outputs
and empty record segments, so the fleet player's interpreter finishes
them on the CSR as given.

Array layouts (all ``int64`` little-endian C-contiguous unless noted):

- ``offsets[n+1]`` / ``targets[m]`` — the CSR adjacency, targets
  strictly ascending within each row.  This is a correctness
  precondition: a hub's forwarding set ranks all non-members equal
  and breaks their ties by id, and when its row holds at least β+1 of
  them the kernel takes the first β+1 in row order instead of ranking
  the row.  An unsorted row silently changes forwarding sets, so every
  CSR producer that feeds the fleet player is tested for sorted rows.
  Rows are symmetric except that some may be empty (a fabric shard's
  unheld rows).  Both σ routines read a hub's (degree > β) own row in
  place of its neighbours' rows: the peel counts the layer-0
  neighbours that decrement the hub off it, and the relaxation the
  in-ball neighbours that can bound the hub's σ.  That equals the
  row-walking peel (``induced_partition_from_view``) only because a
  neighbour of the hub lists the hub in turn unless its own row is
  empty, and a member with an empty row is never counted.
- ``roots[num_games]`` — one game per root; game order is roots order
  and every per-game output array below is indexed by it.
- ``out_layer[n]`` (float64) / ``out_count[n]`` — fold accumulators
  over the vertex universe: provable layers ``<= clip`` are min-folded
  into ``out_layer`` and counted into ``out_count`` exactly as the
  scalar ``play_coin_game`` (``CoinDroppingGame``) folds them one
  game at a time.
- ``reads`` / ``writes`` / ``super_iters`` / ``edges_seen`` /
  ``mem_counts`` / ``proof_counts`` (``[num_games]``) and
  ``ejected[num_games]`` (uint8) — per-game observables, zeroed at
  ejected games.  ``edges_seen`` (|E(G[S_v])|) is counted only when
  ``want_records`` is set and is 0 otherwise; its one reader,
  :meth:`~repro.lca.partial_partition_lca.PartialPartitionLCA.query_all`,
  always keeps records.  The batched engine follows the same rule.

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
cap is ``SCALE_LIMIT // (x·(β+2))`` (:mod:`repro.core.batched_games`),
so every amount stays below 2^61.  The cohort players below keep that
zeroed-ejection contract; the fleet player
(:func:`repro.core.columnar_rounds.play_fleet`) replays the ejected
games on the scalar bigint/Fraction interpreter, which is exact too.
The incremental-lcm overflow guard is division-based and produces the
same ejection set as the lockstep engine's ``_escalate`` regardless of
forwarder iteration order.

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

The coloring tail (ABI 4; layers since ABI 6)
=============================================

Three entry points run the sequential loops of the Section 6.3
coloring stage, each the vertex-at-a-time form of a numpy pass in
:mod:`repro.coloring`, which stays its oracle.  The first two color one
*layer* in place on a CSR over the whole graph: ``vertices[k]`` are the
layer's ids and ``labels[n]`` the run's int64 label vector, and every
arc whose endpoints carry different labels is skipped, so they color
``graph.induced_subgraph(vertices)`` without building it.  Their
``colors`` / ``out`` are indexed by layer position (entry i is vertex
``vertices[i]``), as the subgraph would index them.  Whole-graph
callers pass every vertex under one label.  Their wrappers take a
:class:`~repro.coloring.layers.Layer`, which carries the CSR, the
vertices and the labels.

- ``repro_cover_free_round(offsets, targets, n, vertices, k, labels,
  colors, d1, q, bound, out)`` — one Linial / Arb-Linial round
  (:meth:`~repro.coloring.cover_free.CoverFreeFamily.reduce_colors`).
  Vertex ``vertices[i]`` avoids the colors of the same-label targets of
  its row; it writes ``a*q + p(a)`` to ``out[i]`` for the smallest
  point ``a`` where its polynomial (the ``d1`` base-q digits of
  ``colors[i]``) differs from every one of theirs.
- ``repro_kw_reduce(offsets, targets, n, vertices, k, labels, colors,
  dp1, num_colors, local_rounds)`` — Kuhn–Wattenhofer down to ``dp1``
  = Δ+1 colors
  (:func:`~repro.coloring.kuhn_wattenhofer.kw_color_reduction`), in
  place on ``colors``; ``*num_colors`` holds the palette in and the
  final palette out, ``*local_rounds`` the sub-rounds run.
- ``repro_recolor_walk(offsets, targets, n, order, beta, lowest,
  colors)`` — the cross-layer recolor walk
  (:func:`~repro.coloring.recolor.greedy_recolor_by_layers`) over the
  whole graph in ``order``, writing each vertex's pick from {0..β} to
  ``colors``.

Preconditions: ``offsets[n+1]`` / ``targets`` are a CSR with every
target in ``[0, n)`` (a :class:`~repro.graphs.graph.Graph`'s, or an
orientation's); rows need not be sorted.  The KW and walk CSRs are
symmetric, the cover-free one may be directed.  ``vertices`` is
strictly ascending and exactly the ids of one label, and ``labels``
has length n: the loops index their per-vertex scratch by global id
and initialise it at the layer's ids alone, so each arc tests the far
end's label before it reads that scratch.  The ``Layer`` type carries
these by construction (:mod:`repro.coloring.layers`), so the wrappers
do not check the layer again; KW's rejects an orientation's CSR
(``Layer.on_graph``).  Colors are non-negative: below ``q**d1`` with
``q*q`` in int64 for the round, below the palette for KW.  The
wrappers raise ValueError before the call unless ``colors`` has one
entry per layer vertex (and, for KW, each below the palette), and
``order`` holds n ids in ``[0, n)``.  Every array is int64 (numpy
through ``ffi.from_buffer``); the kernel writes only ``out`` /
``colors`` and the two KW counters, which the wrappers allocate.

Return codes: ``0`` on success; ``1`` when a scratch allocation fails;
``2`` when the input breaks the stage's own precondition — a vertex
with more than ``bound`` same-label targets or one that clashes at
every point (the coloring was not proper), a KW mover whose whole
lower half is taken (a degree above Δ), a walk vertex that sees all of
{0..β} taken (not a β-partition).  On ``1`` or ``2`` the
outputs are unspecified, and every entry point frees its scratch
buffers on every path, failures included.  The wrappers
(:func:`cover_free_round`, :func:`kw_reduce`, :func:`recolor_walk`)
return None for a non-zero code, and their callers then rerun the
stage on its numpy pass, which raises the stage's own error for a ``2``.

The k-core peel (ABI 5)
=======================

``repro_core_peel(offsets, targets, n, cores)`` writes every vertex's
core number to ``cores[n]``: the Batagelj–Zaveršnik bucket peel of
:func:`~repro.graphs.arboricity.degeneracy_order`, line for line, in
O(n + m) however many levels the graph has.  The list peel stays its
oracle (:func:`~repro.graphs.arboricity.core_numbers`).

Preconditions: ``offsets[n+1]`` / ``targets`` are a symmetric CSR —
every target in ``[0, n)``, and w listed in v's row as often as v in
w's — which every :meth:`~repro.graphs.graph.Graph.csr` is; rows need
not be sorted.  Symmetry is what keeps a residual degree, and so every
bucket index, non-negative.  ``cores`` is caller-allocated int64, the
only array the loop writes.

Return codes: ``0`` on success; ``1`` when a scratch allocation fails,
with ``cores`` unspecified.  The scratch is freed on both paths.
:func:`core_peel` returns None for a ``1``, and
:func:`~repro.graphs.arboricity.degeneracy` then runs the list peel.

Loading and fallback
====================

The kernel is compiled lazily at first use (one direct ``gcc -shared``
call + ``dlopen``, cached under ``$REPRO_NATIVE_CACHE``; see
:mod:`repro.core.native._build`).  :func:`available` gates dispatch:
``engine="compiled"`` degrades to ``"batched"`` with a one-time warning
when the kernel cannot be loaded (the coloring tail and the degeneracy
peel too, through :func:`tail_compiled`), ``REPRO_NATIVE_DISABLE=1``
forces that degradation, and a corrupt or missing shared object only flips
:func:`available` to ``False`` — it never breaks ``import repro``.
"""

from __future__ import annotations

import math
import os
import threading
import time
import warnings
from typing import TYPE_CHECKING

import numpy as np

from repro.core import batched_games
from repro.core.batched_games import BatchedGamesInfo

if TYPE_CHECKING:
    from repro.coloring.layers import Layer

ABI_VERSION = 6

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


def _init_scale(x: int, beta: int, scale: int | None, scale_cap: int) -> int:
    """The kernel's starting scale, replicated from
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
    """Outputs of ``num_games`` games that all go to the interpreter."""
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
    arenas — and bit-identical observables, ejection set included,
    except that an allocation failure also ejects the games it left
    unplayed.  ``transpose_pos`` / ``arena_hint`` are accepted for
    signature compatibility and ignored: the fused kernel has no numpy
    scatter to transpose and sizes its own arenas.  ``phases`` gains a single
    ``native`` bucket: fusing removes the explore/forward/fold phase
    boundaries by construction.
    """
    del transpose_pos, arena_hint
    _load()
    if _lib is None:
        raise RuntimeError(
            "compiled wave kernel unavailable"
        ) from _load_error
    ffi = _ffi
    roots = np.ascontiguousarray(roots, dtype=np.int64)
    num_games = len(roots)
    # Dynamic lookup: tests shrink batched_games.SCALE_LIMIT to force
    # ejections, and both engines must see the same word budget.
    scale_cap = batched_games.SCALE_LIMIT // max(1, x * (beta + 2))
    if not num_games or scale_cap < 1:
        # scale_cap < 1: every game needs wider coins from hop zero.
        return _all_ejected(num_games, want_records)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.int64)
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
    _lib.repro_play_cohort(
        ffi.from_buffer("int64_t[]", offsets),
        ffi.from_buffer("int64_t[]", targets),
        n,
        ffi.from_buffer("int64_t[]", roots),
        num_games,
        x, beta, clip, horizon,
        min(x * x, n + 2),  # the super-iteration cap
        _init_scale(x, beta, scale, scale_cap), scale_cap,
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

    info = BatchedGamesInfo(
        reads=reads[:done],
        writes=writes[:done],
        records=records,
        super_iterations=super_iters[:done],
        edges_seen=edges_seen[:done],
        ejected=np.nonzero(ejected_flags[:done])[0].astype(np.int64),
    )
    if done < num_games:
        # Allocation failure mid-cohort: the finished games are folded
        # and kept; the rest go to the fleet player's interpreter.
        info = batched_games.join_infos(
            [info, _all_ejected(num_games - done, want_records)]
        )
    return info


def tail_compiled(engine: str | None, context: str) -> bool:
    """Whether the coloring tail runs its compiled loops for ``engine``.

    ``None`` and ``"compiled"`` ask for them; when the kernel cannot
    load, this warns once (:func:`warn_fallback`) and answers False.
    ``"batched"`` and ``"scalar"`` run the numpy tail, the oracle.
    :func:`~repro.graphs.arboricity.degeneracy` asks with ``None``, so
    its peel shares the one warning.
    """
    if engine not in (None, "batched", "compiled", "scalar"):
        raise ValueError('engine must be "batched", "compiled" or "scalar"')
    if engine not in (None, "compiled"):
        return False
    if available():
        return True
    warn_fallback(context)
    return False


def _tail_call(entry: str, *arrays_and_ints) -> bool:
    """Call tail entry point ``entry``, numpy arrays passed by buffer
    (int64, C-contiguous, the outputs writable); True when it returned 0.
    False too when an integer argument does not fit an int64: the numpy
    pass takes Python ints."""
    _load()
    if _lib is None:
        raise RuntimeError("compiled wave kernel unavailable") from _load_error
    args = [
        _ffi.from_buffer("int64_t[]", a, require_writable=a.flags.writeable)
        if isinstance(a, np.ndarray) else a
        for a in arrays_and_ints
    ]
    try:
        return getattr(_lib, entry)(*args) == 0
    except OverflowError:
        return False


def _i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _layer_colors(layer: Layer, colors) -> np.ndarray:
    """An int64 copy of ``colors``; ValueError unless it holds one color
    per vertex of ``layer``, since the loops read ``colors[i]`` for each."""
    out = np.array(colors, dtype=np.int64)
    if out.shape != (layer.size,):
        raise ValueError(
            f"need one color per layer vertex ({layer.size}), got {out.shape}"
        )
    return out


def cover_free_round(
    layer: Layer, colors: np.ndarray, d1: int, q: int, bound: int,
) -> np.ndarray | None:
    """One Linial round (``repro_cover_free_round``) on ``layer``, in
    place on its CSR: vertex ``layer.vertices[i]`` avoids the targets of
    its row that share its label, and ``colors[i]`` in ``[0, q**d1)`` is
    the polynomial of its ``d1`` base-q digits.  Returns the new colors
    by layer position, or None when the loop failed (an allocation,
    more than ``bound`` same-label targets, or a clash at every point):
    the caller's numpy pass then reruns the round and raises its own
    error.  Raises ValueError before the call unless there is one color
    per layer vertex."""
    colors = _layer_colors(layer, colors)
    out = np.empty(colors.size, dtype=np.int64)
    ok = _tail_call("repro_cover_free_round", _i64(layer.offsets),
                    _i64(layer.targets), layer.labels.size, layer.vertices,
                    layer.size, layer.labels, colors, d1, q, bound, out)
    return out if ok else None


def kw_reduce(
    layer: Layer, colors: np.ndarray, palette: int, delta_plus_1: int,
) -> tuple[np.ndarray, int, int] | None:
    """Kuhn–Wattenhofer down to ``delta_plus_1`` colors
    (``repro_kw_reduce``) on ``layer`` of its graph's symmetric CSR, on
    a copy of ``colors`` (by layer position, each in ``[0, palette)``):
    ``(colors, num_colors, local_rounds)``, or None when the loop failed
    (see :func:`cover_free_round`).  Raises ValueError before the call
    on a layer of an orientation's CSR, whose loop would avoid
    out-neighbors only, and unless there is one color per layer vertex,
    each inside the palette."""
    if not layer.on_graph:
        raise ValueError("Kuhn-Wattenhofer needs a layer of its graph's CSR")
    out = _layer_colors(layer, colors)
    if out.size and (int(out.min()) < 0 or int(out.max()) >= palette):
        raise ValueError(f"colors outside the palette [0, {palette})")
    stats = np.array([palette, 0], dtype=np.int64)
    ok = _tail_call("repro_kw_reduce", _i64(layer.offsets),
                    _i64(layer.targets), layer.labels.size, layer.vertices,
                    layer.size, layer.labels, out, delta_plus_1, stats[:1],
                    stats[1:])
    return (out, int(stats[0]), int(stats[1])) if ok else None


def recolor_walk(
    offsets: np.ndarray, targets: np.ndarray, order: np.ndarray,
    beta: int, lowest: bool,
) -> np.ndarray | None:
    """The recolor walk (``repro_recolor_walk``) in ``order``, a
    permutation of the vertices: each takes the highest (``lowest``: the
    lowest) color of {0..β} its colored neighbours leave free.  None when
    the loop failed (see :func:`cover_free_round`).  Raises ValueError
    before the call when ``order`` is not one id of ``[0, n)`` per
    vertex, since the loop writes each vertex's color at its id."""
    order = _i64(order)
    if order.size != len(offsets) - 1 or order.size and (
        int(order.min()) < 0 or int(order.max()) >= order.size
    ):
        raise ValueError(
            f"order must hold {len(offsets) - 1} vertex ids in "
            f"[0, {len(offsets) - 1})"
        )
    out = np.empty(order.size, dtype=np.int64)
    ok = _tail_call("repro_recolor_walk", _i64(offsets), _i64(targets),
                    order.size, order, beta, int(lowest), out)
    return out if ok else None


def core_peel(offsets: np.ndarray, targets: np.ndarray) -> np.ndarray | None:
    """Core numbers of the symmetric CSR ``offsets`` / ``targets`` (a
    :class:`~repro.graphs.graph.Graph`'s) by ``repro_core_peel``, or None
    when its scratch allocation failed."""
    cores = np.empty(len(offsets) - 1, dtype=np.int64)
    ok = _tail_call("repro_core_peel", _i64(offsets), _i64(targets),
                    cores.size, cores)
    return cores if ok else None
