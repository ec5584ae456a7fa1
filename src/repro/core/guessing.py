"""Lemma 5.1: β-partitioning without knowing the arboricity.

Two phases, exactly as in the paper:

1. *Sequential doubling*: run Theorem 1.2 with guesses α_i = 2^(2^i)
   (β_i = (2+ε)·α_i), each with a round cap proportional to its own
   expected round bound; stop at the first guess a_k that completes.
   The double-exponential growth makes the total round cost a geometric
   series dominated by the last (successful) run, and guarantees
   a_k < α².
2. *Parallel refinement*: try guesses sqrt(a_k)·(1+ε)^i for
   i = 0..log_{1+ε}(sqrt(a_k)) "in parallel" (the AMPC round cost is the
   max over instances, the space cost their sum) and keep the smallest
   guess that completes — which is at most (1+ε)·α.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.beta_partition_ampc import (
    BetaBelowDegeneracy,
    BetaPartitionOutcome,
    beta_partition_ampc,
)
from repro.graphs.graph import Graph

__all__ = ["GuessedPartitionOutcome", "beta_partition_unknown_alpha"]


@dataclass
class GuessedPartitionOutcome:
    """Result of the arboricity-oblivious algorithm."""

    outcome: BetaPartitionOutcome  # the winning run
    guessed_alpha: int  # the accepted guess (within (1+ε)² of true α)
    sequential_rounds: int  # sum over phase-1 attempts
    parallel_rounds: int  # max over phase-2 instances
    attempts: list[tuple[int, bool]] = field(default_factory=list)  # (guess, ok)

    @property
    def total_rounds(self) -> int:
        """AMPC rounds: sequential attempts sum + parallel phase max."""
        return self.sequential_rounds + self.parallel_rounds


def _try_guess(
    graph: Graph, alpha_guess: int, eps: float, delta: float, round_cap: int
) -> BetaPartitionOutcome | None:
    beta = max(1, math.ceil((2 + eps) * alpha_guess))
    try:
        return beta_partition_ampc(
            graph, beta, delta=delta, max_rounds=round_cap
        )
    except (RuntimeError, BetaBelowDegeneracy):
        return None


def beta_partition_unknown_alpha(
    graph: Graph,
    eps: float = 1.0,
    delta: float = 0.5,
    round_cap_factor: int = 4,
) -> GuessedPartitionOutcome:
    """β-partition ``graph`` without an arboricity hint (Lemma 5.1)."""
    n = graph.num_vertices
    if n == 0:
        raise ValueError("empty graph")
    attempts: list[tuple[int, bool]] = []
    sequential_rounds = 0

    # Phase 1: guesses 2^(2^i).  A guess's round cap scales with log n and
    # the guess's own O(log_{β/2α}(β)) bound: for β = (2+ε)α_guess the
    # ratio β/(2α_guess) is the constant (2+ε)/2, so the cap is
    # round_cap_factor * log n for every attempt.
    cap = max(4, round_cap_factor * (n.bit_length() + 1))
    coarse: BetaPartitionOutcome | None = None
    coarse_guess = 0
    i = 0
    while True:
        guess = 2 ** (2**i)
        outcome = _try_guess(graph, guess, eps, delta, cap)
        ok = outcome is not None
        attempts.append((guess, ok))
        if ok:
            sequential_rounds += outcome.rounds
            coarse = outcome
            coarse_guess = guess
            break
        sequential_rounds += cap
        i += 1
        if 2**i > max(2, n).bit_length() + 1:
            raise RuntimeError("guessing scheme exhausted (should be impossible)")

    # Phase 2: refine in [sqrt(a_k), a_k] by (1+ε) factors, in parallel.
    base = max(1.0, math.sqrt(coarse_guess))
    guesses: list[int] = []
    g = base
    while g <= coarse_guess + 1e-9:
        guesses.append(max(1, math.ceil(g)))
        g *= 1 + eps
    guesses = sorted(set(guesses))
    best: BetaPartitionOutcome | None = None
    best_guess = coarse_guess
    parallel_rounds = 0
    for guess in guesses:
        outcome = _try_guess(graph, guess, eps, delta, cap)
        ok = outcome is not None
        attempts.append((guess, ok))
        if ok:
            parallel_rounds = max(parallel_rounds, outcome.rounds)
            if best is None:  # guesses ascend: first success is smallest
                best = outcome
                best_guess = guess
        else:
            parallel_rounds = max(parallel_rounds, cap)
    if best is None:
        best = coarse
        best_guess = coarse_guess
    return GuessedPartitionOutcome(
        outcome=best,
        guessed_alpha=best_guess,
        sequential_rounds=sequential_rounds,
        parallel_rounds=parallel_rounds,
        attempts=attempts,
    )
