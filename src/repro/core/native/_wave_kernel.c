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
 * so any exact int64 strategy with ejection-on-overflow produces the
 * same observable transcript.  See repro/core/native/__init__.py for
 * the full ABI contract.
 *
 * Plain C99 + libc only: the library is built either by cffi's API mode
 * (setup.py cffi_modules) or by a direct `gcc -shared` at first import
 * (ABI mode dlopen); neither path may depend on Python headers here.
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

/* Per-slot scratch, capacity-grown with the largest ball seen so far
 * and reused across the cohort's games (a game's state is dead once it
 * retires or ejects). */
typedef struct {
    i64 cap;
    i64 *amount;     /* coin amount at the game's current scale */
    i64 *kcap;       /* |F| = min(deg, beta+1) */
    i64 *deg;        /* true residual degree */
    i64 *sigma;      /* sigma_{S_v} (SIGMA_INF = unlayered) */
    i64 *peelcnt;    /* peel countdown buffer */
    i64 *fs_epoch;   /* super-iteration a slot's fset was built in */
    i64 *fs_off;     /* offset of that fset in the fset arena */
    i64 *recv_epoch; /* hop id of the slot's last delivery (hot dedup) */
    i64 *hot;        /* worklist of slots whose amount changed */
    i64 *nhot;
    i64 *fwd;        /* this hop's forwarders */
    i64 *famt;       /* their snapshot amounts */
    i64 *front;      /* peel frontier double buffer */
    i64 *nfront;
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
    GROW(amount); GROW(kcap); GROW(deg); GROW(sigma); GROW(peelcnt);
    GROW(fs_epoch); GROW(fs_off); GROW(recv_epoch);
    GROW(hot); GROW(nhot); GROW(fwd); GROW(famt); GROW(front); GROW(nfront);
#undef GROW
    s->cap = cap;
    return 0;
}

static void slots_free(slots_t *s) {
    free(s->amount); free(s->kcap); free(s->deg); free(s->sigma);
    free(s->peelcnt); free(s->fs_epoch); free(s->fs_off);
    free(s->recv_epoch); free(s->hot); free(s->nhot); free(s->fwd);
    free(s->famt); free(s->front); free(s->nfront);
}

void repro_buffers_free(i64 *p) { free(p); }

i64 repro_abi_version(void) { return 1; }

/* Synchronous sigma-peel of game g's current ball (members
 * mv[0..mem_count), stamps identify membership).  Matches the scalar
 * `_induced_sigma`: counts start at the TRUE residual degree, the whole
 * frontier is assigned its layer before any decrement, and a member
 * enqueues exactly when its countdown hits beta from above. */
static void sigma_peel(
    const i64 *offsets, const i64 *targets, i64 gstamp,
    const i64 *mstamp, const i64 *mslot,
    const i64 *mv, i64 mem_count, i64 beta, slots_t *S
) {
    i64 i, layer, fl, nl;
    i64 *front = S->front, *nfront = S->nfront;
    fl = 0;
    for (i = 0; i < mem_count; i++) {
        S->sigma[i] = SIGMA_INF;
        S->peelcnt[i] = S->deg[i];
        if (S->deg[i] <= beta) front[fl++] = i;
    }
    layer = 0;
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

/* Play one cohort of games.  Returns 0 on success, 1 on allocation
 * failure (all output buffers are then untouched or rolled back; the
 * caller falls back to the numpy engine). */
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
    i64 *arena_lens          /* [2] lengths of mem / proof arenas */
) {
    i64 *mstamp = NULL, *mslot = NULL, *tstamp = NULL;
    vec64 members = {0}, touched = {0}, fsets = {0}, pu = {0}, pl = {0};
    slots_t S;
    fscand *cand = NULL; /* beta+1 entries, allocated at the first hub */
    i64 g, epoch = 0, hop_id = 0;
    int rc = 1;

    memset(&S, 0, sizeof(S));
    mstamp = (i64 *)calloc((size_t)n, sizeof(i64));
    mslot = (i64 *)malloc((size_t)n * sizeof(i64));
    tstamp = (i64 *)calloc((size_t)n, sizeof(i64));
    if (!mstamp || !mslot || !tstamp) goto done;

    for (g = 0; g < num_games; g++) {
        i64 gstamp = g + 1;
        i64 mem_start = members.len;
        i64 mem_count = 0;
        i64 greads = 0, gedges = 0;
        i64 retired_s = max_super;
        i64 s;
        int eject = 0;
        i64 *mv; /* members.data + mem_start; refreshed after growth */

        /* explore(root) */
        {
            i64 v = roots[g], p, end;
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
            end = offsets[v + 1];
            for (p = offsets[v]; p < end; p++) {
                if (mstamp[targets[p]] == gstamp
                        && targets[p] != v) gedges++;
            }
        }

        for (s = 0; s < max_super; s++) {
            i64 gscale = init_scale;
            i64 hot_len, h, i;
            int sigma_valid = 0;
            epoch++;
            fsets.len = 0;
            touched.len = 0;
            for (i = 0; i < mem_count; i++) S.amount[i] = 0;
            S.amount[0] = x * gscale;
            S.hot[0] = 0;
            hot_len = 1;

            for (h = 0; h < horizon && hot_len; h++) {
                i64 nf = 0, nhot_len = 0, factor = 1, j;
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
                        i64 mul = need / gcd64(factor, need);
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
                        for (i = 0; i < mem_count; i++)
                            S.amount[i] *= factor;
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
                                if (!sigma_valid) {
                                    sigma_peel(offsets, targets, gstamp,
                                               mstamp, mslot, mv, mem_count,
                                               beta, &S);
                                    sigma_valid = 1;
                                }
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
             * scalar engine's sorted(touched)), counting each inside
             * edge once — at the exploration of its second endpoint. */
            qsort(touched.data, (size_t)touched.len, sizeof(i64), i64_cmp);
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
                end = offsets[w + 1];
                for (p = offsets[w]; p < end; p++) {
                    if (mstamp[targets[p]] == gstamp
                            && targets[p] != w) gedges++;
                }
            }
        }

        if (eject) {
            /* Roll the game's members out of the arena; the caller
             * replays it through the scalar bigint/Fraction engine with
             * every output zeroed here (matching the lockstep engine's
             * ejection contract). */
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

        /* Final sigma-peel + clipped proof fold, members in exploration
         * order (slot order). */
        sigma_peel(offsets, targets, gstamp, mstamp, mslot, mv,
                   mem_count, beta, &S);
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
                        if (vec_push(&pu, v) || vec_push(&pl, lay))
                            goto done;
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

    /* Hand the arenas to the caller (freed via repro_buffers_free). */
    *mem_out = members.data;
    *proof_u_out = pu.data;
    *proof_l_out = pl.data;
    arena_lens[0] = members.len;
    arena_lens[1] = pu.len;
    members.data = NULL;
    pu.data = NULL;
    pl.data = NULL;
    rc = 0;

done:
    free(mstamp);
    free(mslot);
    free(tstamp);
    free(members.data);
    free(touched.data);
    free(fsets.data);
    free(pu.data);
    free(pl.data);
    free(cand);
    slots_free(&S);
    return rc;
}
