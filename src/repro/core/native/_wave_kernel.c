/* Fused per-cohort wave kernel for the (x, beta, F)-coin dropping game.
 *
 * One call plays a cohort of games sequentially, each game as the exact
 * scalar cascade (threshold test -> scaled-integer coin split ->
 * membership probe -> sigma-ranked top-(beta+1) forwarding -> delivery
 * scatter -> touched-set exploration), fused into a single pass over
 * the caller's CSR buffers.  Observables (reads, writes, proofs,
 * super-iteration counts, inside-edge counts, layer folds) are
 * bit-identical to both the numpy lockstep engine and the per-game
 * Python interpreter: coin values are scale-invariant exact rationals,
 * so any exact integer strategy with ejection-on-overflow produces the
 * same observable transcript.  See repro/core/native/__init__.py for
 * the full ABI contract (version 3: inside edges are counted only
 * when the caller keeps records).
 *
 * A game does only the work its outputs read.  Its sigma is kept across
 * super-iterations: the first one it needs is a full peel, each later
 * one a downward relaxation from the last (sigma_relax), and the end of
 * the game reuses it when the ball has not grown since.  Both read
 * sigma off the hubs (members of degree > beta) alone: every other
 * member sits at layer 0 by its degree, and sigma walks its row at
 * most once, when a relaxation first covers it.  A hub with fewer than
 * deg - beta in-ball neighbours stays unlayered without a walk.
 * Rows of explored members are walked for the inside-edge count only
 * with records, and touched sets of a few dozen ids sort by insertion.
 *
 * The game loop lives in _wave_cohort.h and is compiled twice: over
 * int64 coins (repro_play_cohort, the first pass over every game) and
 * over __int128 coins (repro_play_cohort_wide, which replays the games
 * the first pass ejects).  Without __int128 the wide entry point ejects
 * every game, and the fleet player's exact interpreter plays them.
 *
 * Plain C99 + libc only (plus the compiler's __int128 where it has one):
 * the library is built either by cffi's API mode (setup.py
 * cffi_modules) or by direct gcc calls at first import (ABI mode
 * dlopen); neither path may depend on Python headers here.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint8_t u8;

#define SIGMA_INF INT64_MAX

static i64 gcd64(i64 a, i64 b) {
    while (b) { i64 t = a % b; a = b; b = t; }
    return a;
}

/* Growable i64 buffer (amortized doubling). */
typedef struct { i64 *data; i64 len; i64 cap; } vec64;

static int vec_reserve(vec64 *v, i64 need) {
    i64 cap;
    i64 *p;
    if (need <= v->cap) return 0;
    cap = v->cap ? v->cap : 64;
    while (cap < need) cap <<= 1;
    p = (i64 *)realloc(v->data, (size_t)cap * sizeof(i64));
    if (!p) return -1;
    v->data = p;
    v->cap = cap;
    return 0;
}

static int vec_push(vec64 *v, i64 x) {
    if (v->len == v->cap && vec_reserve(v, v->len + 1)) return -1;
    v->data[v->len++] = x;
    return 0;
}

/* Forwarding-set candidate: Definition 4.1's deterministic tie-break —
 * highest sigma-layer first (SIGMA_INF, i.e. unexplored or unlayered,
 * counts highest), then unexplored before explored, then low vertex id.
 * The comparator is a total order (vertex ids are unique within a row),
 * so the top beta+1 are one fixed set in one fixed order.  All
 * unexplored neighbours tie on the first two keys, so they rank by id
 * alone: that is what lets the non-member prefix path read them off a
 * row in CSR order, and why rows must be sorted ascending. */
typedef struct { i64 lay; i64 w; i64 mem; } fscand;

static int fscand_cmp(const void *pa, const void *pb) {
    const fscand *a = (const fscand *)pa;
    const fscand *b = (const fscand *)pb;
    if (a->lay != b->lay) return (a->lay > b->lay) ? -1 : 1;
    if (a->mem != b->mem) return (a->mem < b->mem) ? -1 : 1;
    return (a->w < b->w) ? -1 : 1;
}

/* The top k of a hub's row (d > k entries) under fscand_cmp, sorted into
 * cand[0..k) by bounded insertion: a candidate that does not beat
 * cand[k-1] is rejected at once, so the cost is O(d*k) worst case and
 * about O(d) in practice. */
static void select_top(
    const i64 *row, i64 d, i64 k, i64 gstamp,
    const i64 *mstamp, const i64 *mslot, const i64 *sigma, fscand *cand
) {
    i64 p, q, kept = 0;
    for (p = 0; p < d; p++) {
        fscand c;
        c.w = row[p];
        c.mem = mstamp[c.w] == gstamp;
        c.lay = c.mem ? sigma[mslot[c.w]] : SIGMA_INF;
        if (kept == k && fscand_cmp(&c, &cand[k - 1]) > 0) continue;
        q = kept < k ? kept++ : k - 1;
        for (; q > 0 && fscand_cmp(&c, &cand[q - 1]) < 0; q--)
            cand[q] = cand[q - 1];
        cand[q] = c;
    }
}

static int i64_cmp(const void *pa, const void *pb) {
    i64 a = *(const i64 *)pa, b = *(const i64 *)pb;
    return (a < b) ? -1 : (a > b);
}

/* Ascending sort of a[0..len): insertion sort up to SMALL_SORT entries
 * (touched sets are mostly a few dozen ids), qsort above. */
#define SMALL_SORT 32

static void sort_i64(i64 *a, i64 len) {
    i64 i, j;
    if (len > SMALL_SORT) {
        qsort(a, (size_t)len, sizeof(i64), i64_cmp);
        return;
    }
    for (i = 1; i < len; i++) {
        i64 x = a[i];
        for (j = i; j > 0 && a[j - 1] > x; j--) a[j] = a[j - 1];
        a[j] = x;
    }
}

/* The k-th smallest (0-based, k < len) of a[0..len); reorders a. */
static i64 kth_smallest(i64 *a, i64 len, i64 k) {
    i64 lo = 0, hi = len - 1;
    while (lo < hi) {
        i64 pivot = a[lo + (hi - lo) / 2], i = lo, j = hi;
        while (i <= j) {
            while (a[i] < pivot) i++;
            while (a[j] > pivot) j--;
            if (i <= j) {
                i64 t = a[i];
                a[i++] = a[j];
                a[j--] = t;
            }
        }
        if (k <= j) hi = j;
        else if (k >= i) lo = i;
        else break; /* a[j+1..i) all equal the pivot */
    }
    return a[k];
}

/* Per-slot scratch, capacity-grown with the largest ball seen so far
 * and reused across the cohort's games (a game's state is dead once it
 * retires or ejects). */
typedef struct {
    i64 cap;
    i64 coin_size;   /* bytes per coin of the two coin arrays below */
    void *amount;    /* coin amount at the game's current scale */
    void *famt;      /* this hop's forwarders' snapshot amounts */
    i64 *kcap;       /* |F| = min(deg, beta+1) */
    i64 *deg;        /* true residual degree */
    i64 *sigma;      /* sigma_{S_v} (SIGMA_INF = unlayered) */
    i64 *peelcnt;    /* a hub's peel countdown; in-queue flag of the
                      * relaxation */
    i64 *inball;     /* a hub's in-ball neighbours with non-empty rows,
                      * set by the peel, kept by the relaxation */
    i64 *fs_epoch;   /* super-iteration a slot's fset was built in */
    i64 *fs_off;     /* offset of that fset in the fset arena */
    i64 *recv_epoch; /* hop id of the slot's last delivery (hot dedup) */
    i64 *hot;        /* worklist of slots whose amount changed */
    i64 *nhot;
    i64 *fwd;        /* this hop's forwarders */
    i64 *front;      /* peel frontier double buffer; nfront doubles as */
    i64 *nfront;     /* the relaxation's circular worklist */
} slots_t;

static int slots_reserve(slots_t *s, i64 need) {
    i64 cap;
    if (need <= s->cap) return 0;
    cap = s->cap ? s->cap : 64;
    while (cap < need) cap <<= 1;
#define GROW(f, size) do { \
        void *p = realloc(s->f, (size_t)cap * (size_t)(size)); \
        if (!p) return -1; \
        s->f = p; \
    } while (0)
#define GROW64(f) GROW(f, sizeof(i64))
    GROW(amount, s->coin_size); GROW(famt, s->coin_size);
    GROW64(kcap); GROW64(deg); GROW64(sigma); GROW64(peelcnt);
    GROW64(inball); GROW64(fs_epoch); GROW64(fs_off); GROW64(recv_epoch);
    GROW64(hot); GROW64(nhot); GROW64(fwd); GROW64(front); GROW64(nfront);
#undef GROW64
#undef GROW
    s->cap = cap;
    return 0;
}

static void slots_free(slots_t *s) {
    free(s->amount); free(s->kcap); free(s->deg); free(s->sigma);
    free(s->peelcnt); free(s->inball); free(s->fs_epoch); free(s->fs_off);
    free(s->recv_epoch); free(s->hot); free(s->nhot); free(s->fwd);
    free(s->famt); free(s->front); free(s->nfront);
}

/* Synchronous sigma-peel of game g's current ball (members
 * mv[0..mem_count), stamps identify membership), walking hub rows only.
 * Matches the row-walking peel of `induced_partition_from_view`: counts
 * start at the TRUE residual degree, the whole frontier is assigned its
 * layer before any decrement, and a member enqueues exactly when its
 * countdown hits beta from above.
 *
 * Layer 0 is every member with deg <= beta; it is assigned without a
 * row walk.  Its decrements land on the hubs (deg > beta) only, and a
 * hub h loses one per layer-0 member w in its row with a non-empty
 * row: rows are symmetric unless empty, so w lists h exactly when h
 * lists w and w's row is not empty.  So each hub's countdown starts at
 * deg minus its in-ball neighbours of degree 1..beta, read off its own
 * row, and the hubs that end up at or below beta form layer 1.  The
 * same walk sets inball, the hub's in-ball neighbours with non-empty
 * rows, which sigma_relax keeps up to date. */
static void sigma_peel(
    const i64 *offsets, const i64 *targets, i64 gstamp,
    const i64 *mstamp, const i64 *mslot,
    const i64 *mv, i64 mem_count, i64 beta, slots_t *S
) {
    i64 i, layer, fl, nl;
    i64 *front = S->front, *nfront = S->nfront;
    fl = 0;
    for (i = 0; i < mem_count; i++) {
        i64 v = mv[i], p, end = offsets[v + 1], low = 0, in = 0;
        if (S->deg[i] <= beta) {
            S->sigma[i] = 0;
            continue;
        }
        S->sigma[i] = SIGMA_INF;
        for (p = offsets[v]; p < end; p++) {
            i64 w = targets[p];
            if (mstamp[w] == gstamp && w != v) {
                i64 dw = S->deg[mslot[w]];
                low += dw && dw <= beta;
                in += dw != 0;
            }
        }
        S->peelcnt[i] = S->deg[i] - low;
        S->inball[i] = in;
        if (S->peelcnt[i] <= beta) front[fl++] = i;
    }
    layer = 1;
    while (fl) {
        for (i = 0; i < fl; i++) S->sigma[front[i]] = layer;
        nl = 0;
        for (i = 0; i < fl; i++) {
            i64 v = mv[front[i]];
            i64 p, end = offsets[v + 1];
            for (p = offsets[v]; p < end; p++) {
                i64 w = targets[p];
                if (mstamp[w] == gstamp) {
                    i64 ws = mslot[w];
                    if (S->sigma[ws] == SIGMA_INF
                            && --S->peelcnt[ws] == beta) {
                        nfront[nl++] = ws;
                    }
                }
            }
        }
        { i64 *t = front; front = nfront; nfront = t; }
        fl = nl;
        layer++;
    }
}

/* Relax sigma from sigma_S to sigma_{S'} after the ball grew from S
 * (slots [0, sig_m)) to S' (slots [0, mem_count)); members are only
 * appended, so the old slots keep their vertices.
 *
 * Write F(v) = 0 if deg(v) <= beta, else 1 + the (deg(v)-beta)-th
 * smallest finite sigma over v's in-ball neighbours (SIGMA_INF if fewer
 * are finite).  sigma_S is F_S's unique fixpoint, sigma_{S'} <= sigma_S
 * on S, so sigma_S extended by SIGMA_INF on the new hubs (and by 0 on
 * the new members of degree <= beta, their F) bounds sigma_{S'} from
 * above, and lowering slots to F from there stops at exactly
 * sigma_{S'}.  When a slot drops to nv, only in-ball neighbours with
 * deg > beta and sigma > nv+1 can drop in turn.  A neighbour with an
 * empty row never counts towards F: sigma_peel counts only non-empty
 * rows, as the row-walking peel of `induced_partition_from_view`
 * decrements only along them (the only asymmetric rows a caller passes are empty ones;
 * see the ABI notes).
 *
 * One walk per new row adds each new in-ball edge to the inball count
 * of its hubs: the new member's own, and an old neighbour's when the
 * new row is not empty (on symmetric rows the old one lists it too).
 * The same walk queues the hubs a new degree-<=beta member can lower.
 * A hub with inball < deg - beta cannot have deg - beta finite in-ball
 * neighbours, so its F is SIGMA_INF and it is dropped from the queue
 * without a walk.
 *
 * Expects peelcnt[0..sig_m) zero (the in-queue flags) and leaves
 * peelcnt[0..mem_count) zero.  Returns -1 if the value buffer cannot
 * grow. */
static int sigma_relax(
    const i64 *offsets, const i64 *targets, i64 gstamp,
    const i64 *mstamp, const i64 *mslot,
    const i64 *mv, i64 sig_m, i64 mem_count, i64 beta, slots_t *S,
    vec64 *vals
) {
    i64 *queue = S->nfront, *inq = S->peelcnt;
    i64 head = 0, qlen = 0, i;
    for (i = sig_m; i < mem_count; i++) {
        int hub = S->deg[i] > beta;
        S->sigma[i] = hub ? SIGMA_INF : 0;
        S->inball[i] = 0;
        inq[i] = hub;
        if (hub) queue[qlen++] = i;
    }
    for (i = sig_m; i < mem_count; i++) {
        i64 v = mv[i], p, end = offsets[v + 1];
        int low = S->deg[i] <= beta;
        for (p = offsets[v]; p < end; p++) {
            i64 w = targets[p];
            if (mstamp[w] == gstamp && w != v) {
                i64 ws = mslot[w];
                if (S->deg[ws] <= beta) {
                    S->inball[i] += S->deg[ws] != 0;
                    continue;
                }
                S->inball[i]++;
                if (ws < sig_m) S->inball[ws]++;
                if (low && !inq[ws] && S->sigma[ws] > 1) {
                    inq[ws] = 1;
                    queue[qlen++] = ws; /* nothing dequeued yet */
                }
            }
        }
    }
    while (qlen) {
        i64 slot = queue[head], v = mv[slot], d = S->deg[slot];
        i64 p, end = offsets[v + 1], nv, nf = 0;
        head = head + 1 == mem_count ? 0 : head + 1;
        qlen--;
        inq[slot] = 0;
        if (S->inball[slot] < d - beta) continue;
        if (vec_reserve(vals, d)) return -1;
        for (p = offsets[v]; p < end; p++) {
            i64 w = targets[p];
            if (mstamp[w] == gstamp && w != v) {
                i64 ws = mslot[w];
                if (S->sigma[ws] != SIGMA_INF && S->deg[ws])
                    vals->data[nf++] = S->sigma[ws];
            }
        }
        nv = nf < d - beta
            ? SIGMA_INF : 1 + kth_smallest(vals->data, nf, d - beta - 1);
        if (nv >= S->sigma[slot]) continue;
        S->sigma[slot] = nv;
        for (p = offsets[v]; p < end; p++) {
            i64 w = targets[p];
            if (mstamp[w] == gstamp) {
                i64 ws = mslot[w];
                if (!inq[ws] && S->deg[ws] > beta && S->sigma[ws] > nv + 1) {
                    i64 tail = head + qlen;
                    inq[ws] = 1;
                    queue[tail >= mem_count ? tail - mem_count : tail] = ws;
                    qlen++;
                }
            }
        }
    }
    return 0;
}

/* Bring S->sigma up to the sigma of the game's current ball (slots [0,
 * mem_count)) from the last one it computed (slots [0, *sig_m)): a full
 * peel for the game's first sigma, a relaxation after growth, nothing
 * if the ball has not grown.  Returns -1 on allocation failure. */
static int sigma_update(
    const i64 *offsets, const i64 *targets, i64 gstamp,
    const i64 *mstamp, const i64 *mslot,
    const i64 *mv, i64 *sig_m, i64 mem_count, i64 beta, slots_t *S,
    vec64 *vals
) {
    if (*sig_m == mem_count) return 0;
    if (!*sig_m) {
        sigma_peel(offsets, targets, gstamp, mstamp, mslot, mv, mem_count,
                   beta, S);
        memset(S->peelcnt, 0, (size_t)mem_count * sizeof(i64));
    } else if (sigma_relax(offsets, targets, gstamp, mstamp, mslot, mv,
                           *sig_m, mem_count, beta, S, vals)) {
        return -1;
    }
    *sig_m = mem_count;
    return 0;
}

/* REPRO_COIN_PASSES picks the entry points one compile emits: bit 1 the
 * int64 pass and the width-free exports, bit 2 the __int128 pass.  The
 * default is both; the lazy build compiles each pass as its own object,
 * in parallel, and links the two into one shared object. */
#ifndef REPRO_COIN_PASSES
#define REPRO_COIN_PASSES 3
#endif

#if REPRO_COIN_PASSES & 1
void repro_buffers_free(i64 *p) { free(p); }

i64 repro_abi_version(void) { return 3; }

/* The int64 pass: every game starts here. */
#define COIN i64
#define PLAY_COHORT repro_play_cohort
#define CAP_PARAMS i64 scale_cap_
#define CAP_VALUE scale_cap_
#include "_wave_cohort.h"
#endif

#if REPRO_COIN_PASSES & 2
#ifdef __SIZEOF_INT128__
/* The __int128 pass over the games the int64 pass ejected.  The cap
 * arrives as two exact 64-bit halves, cap = hi * 2^64 + lo. */
#define COIN __int128
#define PLAY_COHORT repro_play_cohort_wide
#define CAP_PARAMS i64 scale_cap_hi, uint64_t scale_cap_lo
#define CAP_VALUE ((__int128)scale_cap_hi << 64 | (__int128)scale_cap_lo)
#include "_wave_cohort.h"
#else
/* No 128-bit integers on this compiler: every game is ejected, so the
 * fleet player's interpreter still gives exact results. */
int repro_play_cohort_wide(
    const i64 *offsets, const i64 *targets, i64 n,
    const i64 *roots, i64 num_games,
    i64 x, i64 beta, i64 clip, i64 horizon, i64 max_super,
    i64 init_scale, i64 scale_cap_hi, uint64_t scale_cap_lo,
    double *out_layer, i64 *out_count,
    i64 *reads, i64 *writes, i64 *super_iters, i64 *edges_seen,
    u8 *ejected, i64 want_records, i64 *mem_counts, i64 *proof_counts,
    i64 **mem_out, i64 **proof_u_out, i64 **proof_l_out,
    i64 *arena_lens, i64 *games_done
) {
    i64 g;
    for (g = 0; g < num_games; g++) {
        reads[g] = writes[g] = super_iters[g] = edges_seen[g] = 0;
        mem_counts[g] = proof_counts[g] = 0;
        ejected[g] = 1;
    }
    *mem_out = *proof_u_out = *proof_l_out = NULL;
    arena_lens[0] = arena_lens[1] = 0;
    *games_done = num_games;
    return 0;
}
#endif
#endif
