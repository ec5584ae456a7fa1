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
 * when the caller keeps records; version 4 adds the coloring tail's
 * three loops, version 5 the k-core peel, at the end of this file;
 * version 6 restricts the Linial round and KW to one layer of a vertex
 * labelling on the whole graph's CSR).
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
 * Coins are int64.  A game whose exact coin scale would outgrow the
 * caller's cap is ejected, and the fleet player's exact interpreter
 * replays it.
 *
 * Plain C99 + libc only: the library is built by a direct `gcc -shared`
 * at first import and loaded by cffi's ABI mode (dlopen), so nothing
 * here may depend on Python headers.
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
    i64 *amount;     /* coin amount at the game's current scale */
    i64 *famt;       /* this hop's forwarders' snapshot amounts */
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
#define GROW(f) do { \
        i64 *p = (i64 *)realloc(s->f, (size_t)cap * sizeof(i64)); \
        if (!p) return -1; \
        s->f = p; \
    } while (0)
    GROW(amount); GROW(famt); GROW(kcap); GROW(deg); GROW(sigma);
    GROW(peelcnt); GROW(inball); GROW(fs_epoch); GROW(fs_off);
    GROW(recv_epoch); GROW(hot); GROW(nhot); GROW(fwd); GROW(front);
    GROW(nfront);
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

void repro_buffers_free(i64 *p) { free(p); }

i64 repro_abi_version(void) { return 6; }

/* Play one cohort of games.  Returns 0 on success, 1 on allocation
 * failure.  Either way *games_done games finished: their per-game
 * outputs, fold contributions and arena segments are complete, and the
 * arenas are handed to the caller.  Games from *games_done on are
 * untouched, so the caller replays exactly roots[*games_done:]. */
int repro_play_cohort(
    const i64 *offsets,      /* [n+1] CSR row offsets */
    const i64 *targets,      /* CSR targets (sorted per row) */
    i64 n,
    const i64 *roots,        /* [num_games] */
    i64 num_games,
    i64 x, i64 beta, i64 clip, i64 horizon,
    i64 max_super,           /* min(x*x, n+2): super-iteration cap */
    i64 init_scale, i64 scale_cap,
    double *out_layer,       /* [n] min-fold accumulator */
    i64 *out_count,          /* [n] add-fold accumulator */
    i64 *reads, i64 *writes, /* [num_games] */
    i64 *super_iters,        /* [num_games] */
    i64 *edges_seen,         /* [num_games] */
    u8 *ejected,             /* [num_games] flags */
    i64 want_records,
    i64 *mem_counts,         /* [num_games] members per game */
    i64 *proof_counts,       /* [num_games] proof entries per game */
    i64 **mem_out,           /* game-major concatenated explored sets */
    i64 **proof_u_out, i64 **proof_l_out,
    i64 *arena_lens,         /* [2] lengths of mem / proof arenas */
    i64 *games_done          /* games finished (num_games unless rc=1) */
) {
    i64 *mstamp = NULL, *mslot = NULL, *tstamp = NULL;
    vec64 members = {0}, touched = {0}, fsets = {0}, pu = {0}, pl = {0};
    vec64 relax = {0};   /* sigma_relax's value buffer */
    slots_t S;
    fscand *cand = NULL; /* beta+1 entries, allocated at the first hub */
    i64 g = 0, epoch = 0, hop_id = 0;
    i64 mem_start = 0; /* arena start of game g's members */
    int rc = 1;

    memset(&S, 0, sizeof(S));
    mstamp = (i64 *)calloc((size_t)n, sizeof(i64));
    mslot = (i64 *)malloc((size_t)n * sizeof(i64));
    tstamp = (i64 *)calloc((size_t)n, sizeof(i64));
    if (!mstamp || !mslot || !tstamp) goto done;

    for (g = 0; g < num_games; g++) {
        i64 gstamp = g + 1;
        i64 mem_count = 0;
        i64 greads = 0, gedges = 0;
        i64 sig_m = 0; /* slots the game's last sigma covered */
        i64 retired_s = max_super;
        i64 s;
        int eject = 0;
        i64 *mv; /* members.data + mem_start; refreshed after growth */

        mem_start = members.len;
        /* explore(root): no inside edge yet (only the root is stamped) */
        {
            i64 v = roots[g];
            if (vec_push(&members, v)) goto done;
            if (slots_reserve(&S, 1)) goto done;
            mv = members.data + mem_start;
            mstamp[v] = gstamp;
            mslot[v] = 0;
            mem_count = 1;
            S.deg[0] = offsets[v + 1] - offsets[v];
            S.kcap[0] = S.deg[0] < beta + 1 ? S.deg[0] : beta + 1;
            S.fs_epoch[0] = -1;
            S.recv_epoch[0] = -1;
            greads += 1 + S.deg[0];
        }

        for (s = 0; s < max_super; s++) {
            i64 gscale = init_scale;
            i64 hot_len, h, i;
            epoch++;
            fsets.len = 0;
            touched.len = 0;
            for (i = 0; i < mem_count; i++) S.amount[i] = 0;
            S.amount[0] = x * gscale;
            S.hot[0] = 0;
            hot_len = 1;

            for (h = 0; h < horizon && hot_len; h++) {
                i64 nf = 0, nhot_len = 0, j;
                i64 factor = 1;
                hop_id++;
                /* Phase 1: collect forwarders (snapshot amounts). */
                for (i = 0; i < hot_len; i++) {
                    i64 slot = S.hot[i];
                    i64 k = S.kcap[slot];
                    if (k > 0 && S.amount[slot] >= k * gscale) {
                        S.fwd[nf] = slot;
                        S.famt[nf] = S.amount[slot];
                        nf++;
                    }
                }
                if (!nf) break;
                /* Phase 2: escalate the game scale so every division of
                 * this hop is exact — the lcm of the per-division
                 * deficits |F|/gcd(a,|F|), ejecting instead of
                 * overflowing the word budget (identical policy and
                 * ejection set to the lockstep engine's _escalate). */
                for (j = 0; j < nf; j++) {
                    i64 k = S.kcap[S.fwd[j]];
                    i64 r = S.famt[j] % k;
                    if (r) {
                        i64 need = k / gcd64(r, k);
                        i64 mul = need / gcd64(factor % need, need);
                        if (mul > 1 && factor > scale_cap / mul) {
                            /* factor*mul > scale_cap >= scale_cap/gscale:
                             * the gscale check below would eject too. */
                            eject = 1;
                            break;
                        }
                        factor *= mul;
                    }
                }
                if (!eject && factor > 1) {
                    if (factor > scale_cap / gscale) {
                        eject = 1;
                    } else {
                        gscale *= factor;
                        for (i = 0; i < mem_count; i++) S.amount[i] *= factor;
                        for (j = 0; j < nf; j++) S.famt[j] *= factor;
                    }
                }
                if (eject) break;
                /* Phase 3: zero forwarders, then deliver shares.  The
                 * scalar engine interleaves `coins[u] -= amount` with
                 * deliveries; subtraction of the snapshot commutes with
                 * the share additions, so zero-then-scatter is exact. */
                for (j = 0; j < nf; j++) S.amount[S.fwd[j]] = 0;
                for (j = 0; j < nf; j++) {
                    i64 slot = S.fwd[j];
                    i64 k = S.kcap[slot];
                    i64 share = S.famt[j] / k;
                    i64 v = mv[slot];
                    if (S.deg[slot] <= beta + 1) {
                        /* Forwarding set = the whole row; membership via
                         * the stamp array is the fused join. */
                        i64 p, end = offsets[v + 1];
                        for (p = offsets[v]; p < end; p++) {
                            i64 w = targets[p];
                            if (mstamp[w] == gstamp) {
                                i64 ds = mslot[w];
                                S.amount[ds] += share;
                                if (S.recv_epoch[ds] != hop_id) {
                                    S.recv_epoch[ds] = hop_id;
                                    S.nhot[nhot_len++] = ds;
                                }
                            } else if (tstamp[w] != epoch) {
                                tstamp[w] = epoch;
                                if (vec_push(&touched, w)) goto done;
                            }
                        }
                    } else {
                        /* sigma-ranked top-(beta+1), cached per slot per
                         * super-iteration (sigma and S_v are constant
                         * within one). */
                        i64 q, off;
                        if (S.fs_epoch[slot] != epoch) {
                            i64 d = S.deg[slot], p, end = offsets[v + 1];
                            i64 nm = 0;
                            if (vec_reserve(&fsets, fsets.len + beta + 1))
                                goto done;
                            S.fs_off[slot] = fsets.len;
                            S.fs_epoch[slot] = epoch;
                            /* Non-member prefix: every non-member ranks
                             * (SIGMA_INF, mem 0), above every member, and
                             * ties break by id, so with >= beta+1 of them
                             * the set is the row's first beta+1 non-members
                             * (rows are sorted ascending) and needs no
                             * sigma-peel. */
                            for (p = offsets[v]; p < end && nm <= beta; p++) {
                                i64 w = targets[p];
                                if (mstamp[w] != gstamp)
                                    fsets.data[fsets.len + nm++] = w;
                            }
                            if (nm == beta + 1) {
                                fsets.len += nm;
                            } else {
                                if (!cand) {
                                    cand = (fscand *)malloc(
                                        (size_t)(beta + 1) * sizeof(fscand));
                                    if (!cand) goto done;
                                }
                                if (sigma_update(offsets, targets, gstamp,
                                                 mstamp, mslot, mv, &sig_m,
                                                 mem_count, beta, &S, &relax))
                                    goto done;
                                select_top(targets + offsets[v], d, beta + 1,
                                           gstamp, mstamp, mslot, S.sigma,
                                           cand);
                                for (q = 0; q < beta + 1; q++)
                                    fsets.data[fsets.len++] = cand[q].w;
                            }
                        }
                        off = S.fs_off[slot];
                        for (q = 0; q < beta + 1; q++) {
                            i64 w = fsets.data[off + q];
                            if (mstamp[w] == gstamp) {
                                i64 ds = mslot[w];
                                S.amount[ds] += share;
                                if (S.recv_epoch[ds] != hop_id) {
                                    S.recv_epoch[ds] = hop_id;
                                    S.nhot[nhot_len++] = ds;
                                }
                            } else if (tstamp[w] != epoch) {
                                tstamp[w] = epoch;
                                if (vec_push(&touched, w)) goto done;
                            }
                        }
                    }
                }
                { i64 *t = S.hot; S.hot = S.nhot; S.nhot = t; }
                hot_len = nhot_len;
            }
            if (eject) break;
            if (!touched.len) {
                retired_s = s + 1;
                break;
            }
            /* Explore the touched set in ascending vertex order (the
             * scalar engine's sorted(touched)).  With records, count each
             * inside edge once, at the exploration of its second
             * endpoint; only PartialPartitionLCA.query_all reads the
             * count, and it always keeps records. */
            sort_i64(touched.data, touched.len);
            if (vec_reserve(&members, members.len + touched.len))
                goto done;
            if (slots_reserve(&S, mem_count + touched.len)) goto done;
            mv = members.data + mem_start;
            for (i = 0; i < touched.len; i++) {
                i64 w = touched.data[i];
                i64 slot = mem_count++;
                i64 p, end, d;
                members.data[members.len++] = w;
                mstamp[w] = gstamp;
                mslot[w] = slot;
                d = offsets[w + 1] - offsets[w];
                S.deg[slot] = d;
                S.kcap[slot] = d < beta + 1 ? d : beta + 1;
                S.fs_epoch[slot] = -1;
                S.recv_epoch[slot] = -1;
                greads += 1 + d;
                if (!want_records) continue;
                for (p = offsets[w], end = offsets[w + 1]; p < end; p++) {
                    if (mstamp[targets[p]] == gstamp && targets[p] != w)
                        gedges++;
                }
            }
        }

        if (eject) {
            /* Roll the game's members out of the arena; the caller
             * replays it on the interpreter with every output zeroed
             * here (matching the lockstep engine's ejection contract). */
            members.len = mem_start;
            reads[g] = 0;
            writes[g] = 0;
            super_iters[g] = 0;
            edges_seen[g] = 0;
            ejected[g] = 1;
            mem_counts[g] = 0;
            proof_counts[g] = 0;
            continue;
        }

        /* Final sigma (none to do if the last super-iteration computed
         * it and grew nothing) + clipped proof fold, members in
         * exploration order (slot order).  The sigma and the proof
         * arenas come first, so the fold cannot fail halfway and a game
         * folds all or nothing. */
        if (sigma_update(offsets, targets, gstamp, mstamp, mslot, mv,
                         &sig_m, mem_count, beta, &S, &relax))
            goto done;
        if (want_records && (vec_reserve(&pu, pu.len + mem_count)
                             || vec_reserve(&pl, pl.len + mem_count)))
            goto done;
        {
            i64 w_count = 0, i;
            i64 pstart = pu.len;
            for (i = 0; i < mem_count; i++) {
                i64 lay = S.sigma[i];
                if (lay <= clip) { /* SIGMA_INF never passes */
                    i64 v = mv[i];
                    w_count++;
                    if ((double)lay < out_layer[v])
                        out_layer[v] = (double)lay;
                    out_count[v]++;
                    if (want_records) {
                        pu.data[pu.len++] = v;
                        pl.data[pl.len++] = lay;
                    }
                }
            }
            reads[g] = greads;
            writes[g] = w_count;
            super_iters[g] = retired_s;
            edges_seen[g] = gedges;
            ejected[g] = 0;
            mem_counts[g] = mem_count;
            proof_counts[g] = want_records ? pu.len - pstart : 0;
        }
    }
    rc = 0;

done:
    /* Hand the finished games' arenas to the caller (freed via
     * repro_buffers_free).  On failure, game g is dropped from them:
     * its proof entries were never pushed, its members are rolled back. */
    if (rc) members.len = mem_start;
    *games_done = g;
    *mem_out = members.data;
    *proof_u_out = pu.data;
    *proof_l_out = pl.data;
    arena_lens[0] = members.len;
    arena_lens[1] = pu.len;
    free(mstamp);
    free(mslot);
    free(tstamp);
    free(touched.data);
    free(fsets.data);
    free(relax.data);
    free(cand);
    slots_free(&S);
    return rc;
}

/* ---- The coloring tail (ABI 4; layer-restricted since ABI 6) -----------
 *
 * Three sequential loops of the Section 6.3 coloring stage: a Linial
 * cover-free round, Kuhn-Wattenhofer reduction and the cross-layer
 * recolor walk.  Each is the vertex-at-a-time form of a numpy pass in
 * repro.coloring, which stays the oracle; the Python callers validate
 * every input first.  They return 0 on success, 1 on allocation failure
 * and 2 when the input breaks the stage's own precondition (the caller
 * raises its error); on 1 or 2 the outputs are unspecified, and every
 * scratch buffer is freed on every path.
 *
 * The Linial round and KW color one layer of a vertex labelling in
 * place on the whole graph's CSR: vertices[0..k) are the layer's ids,
 * strictly ascending, and exactly the ids whose labels[] entry is
 * theirs.  Every arc to a vertex of another label is skipped, so the
 * loops color the induced subgraph without copying it; colors[] and
 * out[] are indexed by layer position (entry i is vertices[i]).  The
 * per-vertex scratch is indexed by global id and initialised at the
 * layer's ids alone, so every arc tests the label before it reads the
 * scratch of its far end. */

/* Scratch of len + 1 entries (never a zero-byte malloc); NULL when the
 * byte count would not fit a size_t. */
static i64 *tail_alloc(i64 len) {
    if (len < 0 || (uint64_t)len >= SIZE_MAX / sizeof(i64)) return NULL;
    return (i64 *)malloc((size_t)(len + 1) * sizeof(i64));
}

/* p_w(a) over F_q for a point a >= 1: Horner over w's base-q digits
 * (written to dig[w*d1 ..] on w's first evaluation, when at[w] is still
 * -1), evaluated once per point and then read from val[] (stamped by
 * at[]).  Every Horner operand stays below q*q. */
static i64 point_value(
    i64 w, i64 a, const i64 *colors, i64 d1, i64 q, i64 *dig, i64 *val,
    i64 *at
) {
    i64 *c = dig + w * d1;
    i64 k, x;
    if (at[w] == a) return val[w];
    if (at[w] < 0)
        for (x = colors[w], k = 0; k < d1; k++, x /= q) c[k] = x % q;
    x = c[d1 - 1];
    for (k = d1 - 2; k >= 0; k--) x = (x * a + c[k]) % q;
    at[w] = a;
    val[w] = x;
    return x;
}

/* One cover-free round on a layer: vertex v avoids the colors of its
 * same-label targets in targets[offsets[v] .. offsets[v+1]) and takes
 * a*q + p_v(a) for the smallest point a where its polynomial differs
 * from every one of theirs.  Colors are in [0, q^d1), and p_v's
 * coefficients are the d1 base-q digits of v's color, lowest first;
 * q*q must fit an int64.  Points go outer and pending vertices inner,
 * as in CoverFreeFamily.reduce_colors, so each vertex's value at a
 * point is evaluated once however many vertices avoid it.  Point 0
 * runs as its own pass over the lowest digits (p_v(0)), since most
 * vertices finish there, and counts each vertex's same-label targets;
 * only the vertices a later point reads get their other digits.  rc
 * 2: some vertex has more than `bound` same-label targets, or clashes
 * at every point (the coloring was not proper). */
int repro_cover_free_round(
    const i64 *offsets, const i64 *targets, i64 n,
    const i64 *vertices, i64 k, const i64 *labels,
    const i64 *colors, i64 d1, i64 q, i64 bound, i64 *out
) {
    i64 *col = NULL, *dig = NULL, *val = NULL, *at = NULL, *pending = NULL;
    i64 a, i, v, lab, npend = 0;
    int rc = 1;

    if (!k) return 0;
    if (d1 < 1 || n > INT64_MAX / d1) return 1;
    col = tail_alloc(n);
    dig = tail_alloc(n * d1);
    val = tail_alloc(n);
    at = tail_alloc(n);
    pending = tail_alloc(k);
    if (!col || !dig || !val || !at || !pending) goto done;
    lab = labels[vertices[0]];
    for (i = 0; i < k; i++) {
        v = vertices[i];
        col[v] = colors[i];
        val[v] = colors[i] % q;
        at[v] = -1;
    }
    for (i = 0; i < k; i++) {
        i64 e, mine, clash = 0, deg = 0;
        v = vertices[i];
        mine = val[v];
        for (e = offsets[v]; e < offsets[v + 1]; e++) {
            i64 w = targets[e];
            if (labels[w] != lab) continue;
            deg++;
            clash |= val[w] == mine;
        }
        if (deg > bound) {
            rc = 2;
            goto done;
        }
        out[i] = mine;
        pending[npend] = i;
        npend += clash;
    }
    for (a = 1; a < q && npend; a++) {
        i64 keep = 0, p;
        for (p = 0; p < npend; p++) {
            i64 e, end, mine;
            i = pending[p];
            v = vertices[i];
            mine = point_value(v, a, col, d1, q, dig, val, at);
            end = offsets[v + 1];
            for (e = offsets[v]; e < end; e++) {
                i64 w = targets[e];
                if (labels[w] == lab
                        && point_value(w, a, col, d1, q, dig, val, at)
                            == mine)
                    break;
            }
            if (e < end) pending[keep++] = i;
            else out[i] = a * q + mine;
        }
        npend = keep;
    }
    rc = npend ? 2 : 0;
done:
    free(col);
    free(dig);
    free(val);
    free(at);
    free(pending);
    return rc;
}

/* Kuhn-Wattenhofer reduction of a layer's colors[0..k) in place, from
 * palette *num_colors down to dp1 = Delta+1 colors, on a symmetric CSR.
 * A color is held as its block of 2*dp1 colors and its position in the
 * block.  Each phase counting-sorts the layer by position (counted in
 * the previous pass over it); the movers are those at the upper-half
 * positions dp1 + j, and the dp1 sub-rounds run in order j: every mover
 * takes the first lower-half position that no same-label neighbour in
 * its block holds.  A sub-round's movers all pick before any of them
 * writes, as in kw_color_reduction's array step.  Then the lower halves
 * renumber consecutively, halving the palette: block b's half becomes
 * half (b & 1) of block b >> 1, so only the first phase divides.  A
 * neighbour of another label or outside the block marks the spare slot
 * mark[block].  Writes the final palette to *num_colors and the
 * sub-rounds run to *local_rounds.  rc 2: a mover found its whole lower
 * half taken (some degree exceeds Delta). */
int repro_kw_reduce(
    const i64 *offsets, const i64 *targets, i64 n,
    const i64 *vertices, i64 k, const i64 *labels,
    i64 *colors, i64 dp1, i64 *num_colors, i64 *local_rounds
) {
    i64 m = *num_colors, block, rounds = 0, token = 0, lab;
    i64 *blk = NULL, *pos = NULL, *sorted = NULL, *picks = NULL;
    i64 *seg = NULL, *mark = NULL;
    i64 i, v, j;
    int rc = 1;

    *local_rounds = 0;
    if (m <= dp1) return 0;
    if (dp1 < 1 || dp1 > INT64_MAX / 4) return 2;
    block = 2 * dp1;
    blk = tail_alloc(n);
    pos = tail_alloc(n);
    sorted = tail_alloc(k);
    picks = tail_alloc(k);
    seg = tail_alloc(block);
    mark = tail_alloc(block); /* block + 1 slots: the spare is mark[block] */
    if (!blk || !pos || !sorted || !picks || !seg || !mark) goto done;
    lab = k ? labels[vertices[0]] : 0;
    for (j = 0; j <= block; j++) mark[j] = seg[j] = 0;
    for (i = 0; i < k; i++) {
        v = vertices[i];
        blk[v] = colors[i] / block;
        pos[v] = colors[i] % block;
        seg[pos[v] + 1]++;
    }
    while (m > dp1) {
        i64 blocks;
        /* seg[p] ends position p's run of sorted[] after placement */
        for (j = 1; j <= block; j++) seg[j] += seg[j - 1];
        for (i = 0; i < k; i++) {
            v = vertices[i];
            sorted[seg[pos[v]]++] = v;
        }
        for (j = 0; j < dp1; j++) {
            i64 lo = seg[dp1 + j - 1], hi = seg[dp1 + j];
            rounds++;
            for (i = lo; i < hi; i++) {
                i64 b, e, c;
                v = sorted[i];
                b = blk[v];
                token++;
                for (e = offsets[v]; e < offsets[v + 1]; e++) {
                    i64 w = targets[e];
                    mark[labels[w] == lab && blk[w] == b ? pos[w] : block] =
                        token;
                }
                for (c = 0; c < dp1 && mark[c] == token; c++)
                    ;
                if (c == dp1) {
                    rc = 2;
                    goto done;
                }
                picks[i] = c;
            }
            for (i = lo; i < hi; i++) pos[sorted[i]] = picks[i];
        }
        /* renumber, and count the next phase's positions */
        for (j = 0; j <= block; j++) seg[j] = 0;
        for (i = 0; i < k; i++) {
            v = vertices[i];
            pos[v] += (blk[v] & 1) * dp1;
            blk[v] >>= 1;
            seg[pos[v] + 1]++;
        }
        blocks = m / block + (m % block != 0);
        m = blocks == 1 ? dp1 : blocks * dp1;
    }
    for (i = 0; i < k; i++) {
        v = vertices[i];
        colors[i] = blk[v] * block + pos[v];
    }
    *num_colors = m;
    *local_rounds = rounds;
    rc = 0;
done:
    free(blk);
    free(pos);
    free(sorted);
    free(picks);
    free(seg);
    free(mark);
    return rc;
}

/* The cross-layer recolor walk: vertices in order[0..n) (a permutation
 * of [0, n)) each take the highest (lowest when `lowest`) color of
 * {0..beta} that no already-colored neighbour holds, into colors[0..n).
 * On a symmetric CSR that is the blocked-mask walk of
 * greedy_recolor_by_layers, for any beta.  A vertex of degree d picks
 * within d+1 steps of its palette end, so every color lies in the
 * window of the w = min(beta, max degree) + 1 colors at that end, and
 * the stamp array covers the window alone: mark[1 + k] for the k-th
 * color from the end, mark[0] the spare that neighbours outside the
 * window (uncolored ones, -1, included) stamp, so the loop has no
 * branch.  rc 2: some vertex sees the whole palette taken. */
int repro_recolor_walk(
    const i64 *offsets, const i64 *targets, i64 n,
    const i64 *order, i64 beta, i64 lowest, i64 *colors
) {
    i64 *mark = NULL;
    i64 i, k, w = 0;
    int rc = 1;

    if (beta < 0 || beta == INT64_MAX) goto done;
    for (i = 0; i < n; i++)
        if (offsets[i + 1] - offsets[i] > w) w = offsets[i + 1] - offsets[i];
    w = (w < beta ? w : beta) + 1;
    mark = tail_alloc(w);
    if (!mark) goto done;
    for (k = 0; k <= w; k++) mark[k] = -1;
    for (i = 0; i < n; i++) colors[i] = -1;
    for (i = 0; i < n; i++) {
        i64 v = order[i], e;
        for (e = offsets[v]; e < offsets[v + 1]; e++) {
            i64 c = colors[targets[e]];
            k = lowest ? c : beta - c;
            mark[(uint64_t)k < (uint64_t)w ? 1 + k : 0] = i;
        }
        for (k = 0; k < w && mark[1 + k] == i; k++)
            ;
        if (k == w) {
            rc = 2;
            goto done;
        }
        colors[v] = lowest ? k : beta - k;
    }
    rc = 0;
done:
    free(mark);
    return rc;
}

/* ---- The k-core peel (ABI 5) -------------------------------------------
 *
 * Core numbers of a symmetric CSR (a Graph's: every target in [0, n),
 * w in v's row as often as v in w's) into cores[0..n): the
 * Batagelj-Zaversnik bucket peel of degeneracy_order, line for line,
 * which stays the oracle.  vert[] holds the vertices sorted by residual
 * degree (ties by id), pos[] its inverse, bin[d] the first slot of
 * bucket d; each removal moves every unpeeled neighbour one bucket
 * down by an O(1) swap, so the peel is O(n + m) however many levels
 * the graph has.  On a symmetric CSR a residual degree never drops
 * below 0.  Returns 0, or 1 when a scratch allocation fails (cores is
 * then unspecified); every scratch buffer is freed on both paths. */
int repro_core_peel(
    const i64 *offsets, const i64 *targets, i64 n, i64 *cores
) {
    i64 *deg = NULL, *vert = NULL, *pos = NULL, *bin = NULL;
    i64 i, v, d, max_deg = 0, current = 0;
    int rc = 1;

    deg = tail_alloc(n);
    vert = tail_alloc(n);
    pos = tail_alloc(n);
    if (!deg || !vert || !pos) goto done;
    for (v = 0; v < n; v++) {
        deg[v] = offsets[v + 1] - offsets[v];
        if (deg[v] > max_deg) max_deg = deg[v];
    }
    /* max_deg + 2 slots: bin[max_deg + 1] is the counting spare */
    bin = tail_alloc(max_deg + 1);
    if (!bin) goto done;
    /* counting sort by degree, stable in id: bin[d] ends as the first
     * slot of bucket d */
    for (d = 0; d <= max_deg + 1; d++) bin[d] = 0;
    for (v = 0; v < n; v++) bin[deg[v] + 1]++;
    for (d = 1; d <= max_deg; d++) bin[d] += bin[d - 1];
    for (v = 0; v < n; v++) {
        pos[v] = bin[deg[v]]++;
        vert[pos[v]] = v;
    }
    for (d = max_deg; d > 0; d--) bin[d] = bin[d - 1];
    bin[0] = 0;
    for (i = 0; i < n; i++) {
        i64 e, dv;
        v = vert[i];
        dv = deg[v];
        bin[dv] = i + 1; /* v leaves the front of its bucket */
        if (dv > current) current = dv;
        cores[v] = current;
        for (e = offsets[v]; e < offsets[v + 1]; e++) {
            i64 w = targets[e], dw, s, u;
            if (pos[w] <= i) continue; /* peeled already */
            dw = deg[w];
            s = bin[dw];
            u = vert[s];
            if (u != w) {
                i64 pw = pos[w];
                vert[s] = w;
                vert[pw] = u;
                pos[w] = s;
                pos[u] = pw;
            }
            bin[dw] = s + 1;
            deg[w] = dw - 1;
        }
    }
    rc = 0;
done:
    free(deg);
    free(vert);
    free(pos);
    free(bin);
    return rc;
}
