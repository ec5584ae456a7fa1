"""The sublinear LCA for partial β-partitions — Lemma 4.7 / Remark 4.8.

When queried about a vertex v, the LCA plays the (x, β, F)-coin dropping
game from v and outputs

- ``layer(v)`` — the S_v-induced layer of v clipped to the provable range
  ``[0, log_{β+1} x]`` (∞ otherwise), and
- a *proof* ℓ_v: a partial β-partition on the explored subgraph that any
  third party can merge with other proofs via pointwise minimum
  (Lemma 4.10) to obtain a globally consistent partial β-partition.

Guarantees (Lemma 4.7): at most x⁶ queries per invocation, and the set of
vertices receiving finite layers covers at least a
``1 - 2^{1 - log x / log_{β/2α}(β+1)}`` fraction of V whenever
β >= (2+ε)α.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.lca.coin_game import (
    CoinDroppingGame,
    CoinGameResult,
    fixed_coin_scale,
    max_provable_layer,
)
from repro.lca.oracle import GraphOracle
from repro.partition.beta_partition import PartialBetaPartition, merge_min

__all__ = ["PartialPartitionLCA", "lca_success_fraction_bound"]


def lca_success_fraction_bound(x: int, beta: int, alpha: int) -> float:
    """Lemma 4.7's guaranteed fraction of layered vertices.

    Returns ``max(0, 1 - 2^{1 - log x / log_{β/2α}(β+1)})``; the logs are
    base 2 (the paper's exponent is unit-free, any common base works).
    """
    import math

    if beta <= 2 * alpha:
        return 0.0
    log_ratio = math.log(beta + 1) / math.log(beta / (2 * alpha))
    exponent = 1 - math.log2(x) / log_ratio
    return max(0.0, 1.0 - 2.0**exponent)


@dataclass
class PartialPartitionLCA:
    """Stateless per-vertex LCA; ``query(v)`` is independent across v.

    Parameters mirror Lemma 4.7: exploration budget parameter ``x`` (the
    query bound is x⁶) and degree bound ``beta``.  ``engine`` selects how
    :meth:`query_all` executes its queries: ``"compiled"`` (the
    default) and ``"batched"`` play them as one fleet through
    :func:`repro.core.columnar_rounds.play_fleet`, the fleet player the
    Theorem 1.2 lca rounds use — ``"compiled"`` in one fused C pass per
    cohort (:mod:`repro.core.native`; warned downgrade to ``"batched"``
    when the kernel cannot load), ``"batched"`` as numpy lockstep
    sweeps (:mod:`repro.core.batched_games`, the kernel's fallback and
    oracle).  The fleet player finishes the games whose coins outgrow
    a machine word itself.  ``"scalar"`` replays the per-vertex
    :class:`~repro.lca.coin_game.CoinDroppingGame` oracle, as
    :meth:`query` does.  All produce identical results — layers,
    proofs, explored sets, probe counts — and strict-mode queries
    always take the scalar path (its unbounded forwarding horizon is
    the oracle's own regime).
    """

    graph: Graph
    x: int
    beta: int
    strict: bool = False
    engine: str = "compiled"

    def __post_init__(self) -> None:
        if self.engine not in ("batched", "compiled", "scalar"):
            raise ValueError(
                'engine must be "batched", "compiled" or "scalar"'
            )
        if self.engine == "compiled":
            from repro.core import native

            if not native.available():
                native.warn_fallback("PartialPartitionLCA")
                self.engine = "batched"

    def query(self, v: int) -> CoinGameResult:
        """Answer an LCA query about vertex v (fresh probe accounting)."""
        oracle = GraphOracle(self.graph)
        game = CoinDroppingGame(
            oracle, v, self.x, self.beta, strict=self.strict
        )
        return game.run()

    def query_all(self, vertices=None) -> tuple[PartialBetaPartition, dict[int, CoinGameResult]]:
        """Query every vertex and min-merge the proofs (Remark 4.8).

        Returns the merged partial β-partition λ(v) = min_u ℓ_u(v) and the
        per-vertex results.  The merge is what the AMPC algorithm of
        Theorem 1.2 performs inside the distributed data store.
        """
        if vertices is None:
            vertices = self.graph.vertices()
        vertices = list(vertices)
        if (
            self.engine in ("batched", "compiled")
            and not self.strict and vertices
        ):
            return self._query_all_batched(vertices)
        results = {v: self.query(v) for v in vertices}
        merged = merge_min([r.proof for r in results.values()])
        return merged, results

    def _query_all_batched(
        self, vertices: list[int]
    ) -> tuple[PartialBetaPartition, dict[int, CoinGameResult]]:
        """All queries as one fleet on an array engine (identical results).

        :func:`repro.core.columnar_rounds.play_fleet` plays the games in
        the same cohorts as the Theorem 1.2 round kernel.  Its flat
        records carry each explored set in exploration order and each
        clipped proof, so full :class:`CoinGameResult` objects come back
        out, the games it ejected and finished included; the min-merge
        falls out of the engine's layer fold.
        """
        from repro.core.columnar_rounds import play_fleet

        offsets, targets = self.graph.csr()
        n = self.graph.num_vertices
        clip = self.max_layer
        horizon = 4 * (clip + 2)
        out_layer = np.full(n, float("inf"))
        roots = np.asarray(vertices, dtype=np.int64)
        info = play_fleet(
            offsets, targets, roots, x=self.x, beta=self.beta, clip=clip,
            horizon=horizon, scale=fixed_coin_scale(self.beta, horizon),
            out_layer=out_layer, out_count=np.zeros(n, dtype=np.int64),
            engine=self.engine, want_records=True,
        )
        members, proof_u, proof_layer, member_counts, proof_counts = (
            info.records
        )
        member_ends = np.cumsum(member_counts).tolist()
        proof_ends = np.cumsum(proof_counts).tolist()
        # CoinGameResult.queries starts counting *after* the game's
        # constructor explored the root (Lemma 4.7 charges per query);
        # the engine's reads include that first exploration, as the AMPC
        # machine accounting does.
        queries = info.reads - (1 + np.diff(offsets)[roots])
        results: dict[int, CoinGameResult] = {}
        mo = po = 0
        for i, v in enumerate(vertices):
            me, pe = member_ends[i], proof_ends[i]
            proof = PartialBetaPartition(dict(zip(
                proof_u[po:pe].tolist(), proof_layer[po:pe].tolist()
            )))
            results[v] = CoinGameResult(
                root=v,
                layer=proof.layer(v),
                proof=proof,
                explored=set(members[mo:me].tolist()),
                super_iterations=int(info.super_iterations[i]),
                queries=int(queries[i]),
                edges_seen=int(info.edges_seen[i]),
            )
            mo, po = me, pe
        assigned = np.flatnonzero(np.isfinite(out_layer))
        merged = PartialBetaPartition(
            {int(u): int(out_layer[u]) for u in assigned}
        )
        return merged, results

    @property
    def max_layer(self) -> int:
        """Deepest certifiable layer, floor(log_{β+1} x)."""
        return max_provable_layer(self.x, self.beta)
