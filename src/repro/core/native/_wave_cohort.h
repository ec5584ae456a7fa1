/* The cohort game loop of _wave_kernel.c, written once over a coin type.
 *
 * _wave_kernel.c includes this file once per coin width, after defining
 *
 *   COIN         the signed integer type of coin amounts, snapshot
 *                amounts, the game scale, escalation factors and shares;
 *   PLAY_COHORT  the name of the exported entry point;
 *   CAP_PARAMS   the parameter(s) that carry the scale cap;
 *   CAP_VALUE    an expression of type COIN that rebuilds the cap.
 *
 * Everything else (CSR, stamps, slots, arenas, the sigma-peel, the
 * forwarding-set selection) is width-independent and shared.  The macros
 * are undefined at the end, so the next instantiation starts clean.
 */

#define AMT ((COIN *)S.amount)  /* coin amount at the game's scale */
#define FAMT ((COIN *)S.famt)   /* this hop's snapshot amounts */

/* Play one cohort of games.  Returns 0 on success, 1 on allocation
 * failure.  Either way *games_done games finished: their per-game
 * outputs, fold contributions and arena segments are complete, and the
 * arenas are handed to the caller.  Games from *games_done on are
 * untouched, so the caller replays exactly roots[*games_done:]. */
int PLAY_COHORT(
    const i64 *offsets,      /* [n+1] CSR row offsets */
    const i64 *targets,      /* CSR targets (sorted per row) */
    i64 n,
    const i64 *roots,        /* [num_games] */
    i64 num_games,
    i64 x, i64 beta, i64 clip, i64 horizon,
    i64 max_super,           /* min(x*x, n+2): super-iteration cap */
    i64 init_scale, CAP_PARAMS,
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
    const COIN scale_cap = CAP_VALUE;
    i64 *mstamp = NULL, *mslot = NULL, *tstamp = NULL;
    vec64 members = {0}, touched = {0}, fsets = {0}, pu = {0}, pl = {0};
    slots_t S;
    fscand *cand = NULL; /* beta+1 entries, allocated at the first hub */
    i64 g = 0, epoch = 0, hop_id = 0;
    i64 mem_start = 0; /* arena start of game g's members */
    int rc = 1;

    memset(&S, 0, sizeof(S));
    S.coin_size = sizeof(COIN);
    mstamp = (i64 *)calloc((size_t)n, sizeof(i64));
    mslot = (i64 *)malloc((size_t)n * sizeof(i64));
    tstamp = (i64 *)calloc((size_t)n, sizeof(i64));
    if (!mstamp || !mslot || !tstamp) goto done;

    for (g = 0; g < num_games; g++) {
        i64 gstamp = g + 1;
        i64 mem_count = 0;
        i64 greads = 0, gedges = 0;
        i64 retired_s = max_super;
        i64 s;
        int eject = 0;
        i64 *mv; /* members.data + mem_start; refreshed after growth */

        mem_start = members.len;
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
            COIN gscale = init_scale;
            i64 hot_len, h, i;
            int sigma_valid = 0;
            epoch++;
            fsets.len = 0;
            touched.len = 0;
            for (i = 0; i < mem_count; i++) AMT[i] = 0;
            AMT[0] = (COIN)x * gscale;
            S.hot[0] = 0;
            hot_len = 1;

            for (h = 0; h < horizon && hot_len; h++) {
                i64 nf = 0, nhot_len = 0, j;
                COIN factor = 1;
                hop_id++;
                /* Phase 1: collect forwarders (snapshot amounts). */
                for (i = 0; i < hot_len; i++) {
                    i64 slot = S.hot[i];
                    i64 k = S.kcap[slot];
                    if (k > 0 && AMT[slot] >= (COIN)k * gscale) {
                        S.fwd[nf] = slot;
                        FAMT[nf] = AMT[slot];
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
                    i64 r = (i64)(FAMT[j] % k);
                    if (r) {
                        i64 need = k / gcd64(r, k);
                        COIN mul = need / gcd64((i64)(factor % need), need);
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
                        for (i = 0; i < mem_count; i++) AMT[i] *= factor;
                        for (j = 0; j < nf; j++) FAMT[j] *= factor;
                    }
                }
                if (eject) break;
                /* Phase 3: zero forwarders, then deliver shares.  The
                 * scalar engine interleaves `coins[u] -= amount` with
                 * deliveries; subtraction of the snapshot commutes with
                 * the share additions, so zero-then-scatter is exact. */
                for (j = 0; j < nf; j++) AMT[S.fwd[j]] = 0;
                for (j = 0; j < nf; j++) {
                    i64 slot = S.fwd[j];
                    i64 k = S.kcap[slot];
                    COIN share = FAMT[j] / k;
                    i64 v = mv[slot];
                    if (S.deg[slot] <= beta + 1) {
                        /* Forwarding set = the whole row; membership via
                         * the stamp array is the fused join. */
                        i64 p, end = offsets[v + 1];
                        for (p = offsets[v]; p < end; p++) {
                            i64 w = targets[p];
                            if (mstamp[w] == gstamp) {
                                i64 ds = mslot[w];
                                AMT[ds] += share;
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
                                AMT[ds] += share;
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
             * replays it through the next tier with every output zeroed
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

        /* Final sigma-peel + clipped proof fold, members in exploration
         * order (slot order).  The proof arenas are reserved first, so
         * the fold cannot fail halfway and a game folds all or nothing. */
        sigma_peel(offsets, targets, gstamp, mstamp, mslot, mv,
                   mem_count, beta, &S);
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
    free(cand);
    slots_free(&S);
    return rc;
}

#undef AMT
#undef FAMT
#undef COIN
#undef PLAY_COHORT
#undef CAP_PARAMS
#undef CAP_VALUE
