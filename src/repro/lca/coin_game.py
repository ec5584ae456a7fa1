"""The (x, β, F)-coin dropping game — Section 4.1, Algorithm 1.

The game is played from the perspective of a single node v.  It maintains a
set S_v of *explored* vertices (full adjacency known), initially {v}.  Each
super-iteration:

1. computes the S_v-induced β-partition σ (Definition 3.6) from the local
   view — possible because σ needs only G[S_v] plus true degrees;
2. computes forwarding sets F(σ, u) (Definition 4.1) — lazily, for the
   members that hold coins in some hop;
3. drops x coins on v and forwards them: any u ∈ S_v holding x' >= |F(σ,u)|
   coins sends x'/|F(σ,u)| to each member of F(σ, u); coins reaching
   vertices outside S_v stop there;
4. every outside vertex holding coins is explored and added to S_v.

After x² super-iterations (Lemma 4.4) the simulated layer σ_{S_v}(v) equals
the natural layer ℓ_β(v) for every v with |D(ℓ_β, v)| <= x² and
ℓ_β(v) <= log_{β+1} x.

Engineering notes:

- Coin amounts are exact rationals represented as *bounded-denominator
  scaled integers*: after t hops every denominator divides
  ``lcm(1..β+1) ** t`` (each hop divides by one set size ``|F| <= β+1``),
  so integer counts of ``1/scale`` units are exact.  The scale is
  escalated per game (:meth:`CoinDroppingGame._forward_scaled_ints`):
  it starts at 1 and, once per hop, escalates by the smallest factor
  that makes that hop's divisions exact (the lcm of the per-division
  deficits ``|F| / gcd(amount, |F|)``).  Amounts stay single-digit
  until a game actually demands more, and
  :attr:`CoinDroppingGame.peak_coin_scale` records how far a game
  escalated — through 63 bits and beyond, the overflow path is
  ordinary bigint arithmetic.  This class is the only Python coin game:
  the columnar round engine's scalar engine and the last tier of its
  ejection ladder play it too
  (:func:`repro.core.columnar_rounds.play_coin_game`).  The shared
  fixed scale of :func:`fixed_coin_scale` is only the array engines'
  starting scale (:mod:`repro.core.batched_games`).  Every
  representation is exact, so the differential tests pin the engines
  against this game value for value.

  Games with a huge forwarding horizon (strict mode uses |V| iterations)
  keep Fraction coins instead: the fixed scale would be an astronomical
  bigint, a dynamic scale never shrinks, and Fractions' per-op gcd
  normalization is the safe representation over thousands of ping-pong
  hops.
- If a super-iteration adds no vertex, S_v is a fixed point (σ and F depend
  only on S_v), so remaining super-iterations are no-ops and we exit early.
  ``strict=True`` disables this and the forwarding-horizon cap below.
- Algorithm 1 forwards for |V| iterations; the progress proof (Lemma 4.2)
  only needs the first wave to travel ceil(log_{β+1} x) hops, so the
  default horizon is a generous multiple of that.  Coins ping-ponging
  inside S_v beyond the horizon cannot add new vertices they would not add
  within it unless they first leave S_v — which the horizon already allows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from repro.lca.forwarding import forwarding_set
from repro.lca.oracle import GraphOracle
from repro.partition.beta_partition import INFINITY, PartialBetaPartition
from repro.partition.induced import induced_partition_from_view

__all__ = [
    "CoinGameResult",
    "CoinDroppingGame",
    "INT_COIN_HORIZON_CAP",
    "fixed_coin_scale",
    "max_provable_layer",
]

# Forwarding horizons up to this many hops run the scaled-integer coin
# fast path; deeper horizons (strict mode uses |V| iterations) keep
# Fraction coins, whose per-op gcd normalization bounds coefficient
# growth over thousands of ping-pong hops.
INT_COIN_HORIZON_CAP = 64


@functools.lru_cache(maxsize=256)
def fixed_coin_scale(beta: int, horizon: int) -> int | None:
    """Shared fixed scale for (β, horizon): every game of a round reuses it.

    ``lcm(1..β+1) ** horizon`` clears every denominator any amount can
    acquire within the horizon, so all share divisions are exact ``//``.
    The array engines start every game at it when it fits their word
    budget (:mod:`repro.core.batched_games`).  None means "horizon too
    deep for any scaled-integer representation" — such games keep
    Fraction coins.
    """
    if horizon > INT_COIN_HORIZON_CAP:
        return None
    return math.lcm(*range(1, beta + 2)) ** horizon


def max_provable_layer(x: int, beta: int) -> int:
    """floor(log_{β+1} x): the deepest layer the game certifies (Lemma 4.4).

    The largest k with (β+1)^k <= x, by exact integer powers (a float
    log overshoots just below a power of β+1).
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    layer, power = 0, beta + 1
    while power <= x:
        layer += 1
        power *= beta + 1
    return layer


class _ForwardingSets(dict):
    """F(σ, u) of the explored members of S_v, each built on first use.

    The forwarding loops look a set up only for a vertex that holds
    coins; ``get`` returns None outside S_v, where coins rest.  σ and S_v
    are fixed within a super-iteration, so a set built when its member
    first holds coins equals the one an eager pass would build, and the
    σ-ranked sorts of members that never hold coins are skipped.  One
    instance per super-iteration.
    """

    def __init__(
        self,
        adjacency: dict[int, list[int]],
        layers: dict[int, float],
        beta: int,
    ) -> None:
        super().__init__()
        self._adjacency = adjacency
        self._layers = layers
        self._beta = beta

    def __missing__(self, u: int) -> list[int]:
        adjacency = self._adjacency
        fset = self[u] = forwarding_set(
            adjacency[u], self._layers, adjacency.keys(), self._beta
        )
        return fset

    def get(self, u: int, default: list[int] | None = None) -> list[int] | None:
        return self[u] if u in self._adjacency else default


@dataclass
class CoinGameResult:
    """Outcome of one full game for a node v."""

    root: int
    layer: float  # certified layer of v, or INFINITY
    proof: PartialBetaPartition  # ℓ_v of Remark 4.8 (clipped to provable layers)
    explored: set[int] = field(default_factory=set)  # final S_v
    super_iterations: int = 0
    queries: int = 0
    edges_seen: int = 0  # |E(G[S_v])| at the end (Lemma 4.6 bound: x^6)


class CoinDroppingGame:
    """Plays the (x, β, F)-coin dropping game for one root node."""

    def __init__(
        self,
        oracle: GraphOracle,
        root: int,
        x: int,
        beta: int,
        strict: bool = False,
        forward_iterations: int | None = None,
    ) -> None:
        if x < 1:
            raise ValueError("x must be >= 1")
        if beta < 1:
            raise ValueError("beta must be >= 1")
        self.oracle = oracle
        self.root = root
        self.x = x
        self.beta = beta
        self.strict = strict
        if forward_iterations is not None:
            self.forward_iterations = forward_iterations
        elif strict:
            self.forward_iterations = oracle.num_vertices
        else:
            # Wave horizon: the Lemma 4.2 path has length <= log_{β+1} x;
            # a 4x-plus-slack multiple keeps us safely past it.
            self.forward_iterations = 4 * (max_provable_layer(x, beta) + 2)
        # Coin representation: dynamically-scaled exact integers for
        # bench-sized horizons (amounts are counts of 1/scale units; the
        # scale starts at 1 and escalates only when a division demands
        # it — see the module docstring), Fraction coins for deep
        # horizons where an ever-growing scale could turn every op into
        # giant-bigint arithmetic.
        self._int_coins = self.forward_iterations <= INT_COIN_HORIZON_CAP
        # Largest scale any forwarding run of this game reached: 1 means
        # every division was exact; > 2**63 means the game escalated past
        # machine words into bigints (still exact — just slower).
        self.peak_coin_scale = 1
        # Explored state: full adjacency list of every vertex in S_v.
        self._adjacency: dict[int, list[int]] = {}
        self._degree: dict[int, int] = {}
        self._explore(root)

    # -- exploration -------------------------------------------------------

    def _explore(self, v: int) -> None:
        neighbors = self.oracle.explore(v)
        self._adjacency[v] = neighbors
        self._degree[v] = len(neighbors)

    def _local_view(self) -> tuple[dict[int, list[int]], dict[int, int]]:
        inside = {
            v: [w for w in nbrs if w in self._adjacency]
            for v, nbrs in self._adjacency.items()
        }
        return inside, dict(self._degree)

    def current_partition(self) -> PartialBetaPartition:
        """σ_{S_v, β} for the current S_v."""
        inside, degrees = self._local_view()
        return induced_partition_from_view(inside, degrees, self.beta)

    @property
    def explored_vertices(self) -> set[int]:
        """The current S_v (copies; safe to mutate)."""
        return set(self._adjacency)

    # -- the game ----------------------------------------------------------

    def super_iteration(self) -> int:
        """One round of Algorithm 1; returns the number of new vertices.

        Exposed for step-by-step inspection (see examples/lca_exploration.py);
        :meth:`run` drives the full game.
        """
        sigma = self.current_partition()
        fsets = _ForwardingSets(self._adjacency, sigma.layers, self.beta)
        if self._int_coins:
            coins = self._forward_scaled_ints(fsets)
        else:
            coins = self._forward_fractions(fsets)
        newcomers = [u for u, amount in coins.items() if u not in self._adjacency and amount > 0]
        for u in sorted(newcomers):
            self._explore(u)
        return len(newcomers)

    def _forward_scaled_ints(self, fsets: dict[int, list[int]]) -> dict[int, int]:
        """Run the forwarding loop on dynamically-scaled integer coins.

        Amounts count units of ``1/scale``; the scale starts at 1 and,
        once per hop, escalates by the smallest factor that makes every
        forwarder's share division of that hop exact (the lcm of the
        per-division deficits ``|F| / gcd(amount, |F|)``).  The factor is
        folded into the hop's single rebuild of the coins map, so an
        escalation costs no extra pass.  Thresholds, shares, and the
        final "holds > 0 coins" test are value-for-value identical to
        Fraction arithmetic.
        """
        gcd = math.gcd
        scale = 1
        coins: dict[int, int] = {self.root: self.x}
        for _ in range(self.forward_iterations):
            # First pass: find this hop's forwarders and the one factor
            # that clears every remainder (1 when all divisions are exact).
            factor = 1
            forwarding: dict[int, int] = {}
            for u, amount in coins.items():
                fset = fsets.get(u)
                if fset and amount >= len(fset) * scale:
                    k = len(fset)
                    forwarding[u] = k
                    remainder = amount % k
                    if remainder:
                        need = k // gcd(remainder, k)
                        if factor % need:
                            factor = factor // gcd(factor, need) * need
            if not forwarding:
                break
            if factor > 1:
                scale *= factor
                if scale > self.peak_coin_scale:
                    self.peak_coin_scale = scale
            # Second pass: rebuild the map at the (possibly escalated)
            # scale — forwarders split exactly, everyone else rests.
            next_coins: dict[int, int] = {}
            get = next_coins.get
            for u, amount in coins.items():
                k = forwarding.get(u)
                if k is None:
                    # Outside S_v, too few coins, or isolated: coins rest.
                    next_coins[u] = get(u, 0) + amount * factor
                else:
                    share = amount * factor // k  # exact by choice of factor
                    for w in fsets[u]:
                        next_coins[w] = get(w, 0) + share
            coins = next_coins
        return coins

    def _forward_fractions(self, fsets: dict[int, list[int]]) -> dict[int, Fraction]:
        """The Fraction-coin forwarding loop (deep-horizon fallback)."""
        coins: dict[int, Fraction] = {self.root: Fraction(self.x)}
        for _ in range(self.forward_iterations):
            moved = False
            next_coins: dict[int, Fraction] = {}
            get = next_coins.get
            for u, amount in coins.items():
                fset = fsets.get(u)
                if fset and amount >= len(fset):
                    share = amount / len(fset)
                    for w in fset:
                        next_coins[w] = get(w, 0) + share
                    moved = True
                else:
                    next_coins[u] = get(u, 0) + amount
            coins = next_coins
            if not moved:
                break
        return coins

    def run(self) -> CoinGameResult:
        """Play x² super-iterations (early-exit on fixpoint unless strict)."""
        start_queries = self.oracle.stats.total
        performed = 0
        for _ in range(self.x * self.x):
            added = self.super_iteration()
            performed += 1
            if added == 0 and not self.strict:
                break
        sigma = self.current_partition()
        clip = max_provable_layer(self.x, self.beta)
        proof_layers = {
            u: lay
            for u, lay in sigma.layers.items()
            if lay != INFINITY and lay <= clip
        }
        proof = PartialBetaPartition(proof_layers)
        layer = proof.layer(self.root)
        # Each inside edge once, off the row of its later-explored
        # endpoint, as the compiled kernel counts: |E(G[S_v])| on
        # symmetric rows, and the kernel's count on a fabric shard's
        # rows too (some of them are empty).
        order = {v: i for i, v in enumerate(self._adjacency)}
        edges_seen = sum(
            1
            for i, nbrs in enumerate(self._adjacency.values())
            for w in nbrs
            if order.get(w, i) < i
        )
        return CoinGameResult(
            root=self.root,
            layer=layer,
            proof=proof,
            explored=set(self._adjacency),
            super_iterations=performed,
            queries=self.oracle.stats.total - start_queries,
            edges_seen=edges_seen,
        )
