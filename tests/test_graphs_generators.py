"""Tests for graph generators and their certified properties."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graphs.arboricity import degeneracy, exact_arboricity
from repro.graphs.generators import (
    complete_ary_tree,
    complete_graph,
    cycle_graph,
    grid_2d,
    hypercube,
    path_graph,
    preferential_attachment,
    random_forest,
    random_gnm,
    random_tree,
    skewed_dependency_gadget,
    star_graph,
    union_of_random_forests,
)
from repro.graphs.validation import is_forest
from repro.partition.dependency import dependency_set
from repro.partition.induced import natural_beta_partition


class TestDeterministicShapes:
    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.max_degree() == 2
        assert g.degree(0) == 1

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert all(g.degree(v) == 2 for v in g.vertices())

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10
        assert g.max_degree() == 4

    def test_star(self):
        g = star_graph(7)
        assert g.degree(0) == 6
        assert all(g.degree(v) == 1 for v in range(1, 7))

    def test_grid(self):
        g = grid_2d(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_hypercube(self):
        g = hypercube(4)
        assert g.num_vertices == 16
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert g.num_edges == 32

    def test_complete_ary_tree(self):
        g = complete_ary_tree(3, 2)
        assert g.num_vertices == 1 + 3 + 9
        assert g.num_edges == g.num_vertices - 1
        assert g.degree(0) == 3


class TestRandomGenerators:
    def test_random_tree_is_spanning_tree(self):
        g = random_tree(50, seed=1)
        assert g.num_edges == 49
        assert is_forest(50, list(g.edges()))
        assert len(g.connected_components()) == 1

    def test_random_tree_deterministic(self):
        assert random_tree(30, seed=5) == random_tree(30, seed=5)
        assert random_tree(30, seed=5) != random_tree(30, seed=6)

    def test_random_forest_edge_count_and_acyclicity(self):
        g = random_forest(40, 25, seed=2)
        assert g.num_edges == 25
        assert is_forest(40, list(g.edges()))

    def test_random_forest_too_many_edges(self):
        with pytest.raises(ValueError):
            random_forest(10, 10, seed=0)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_union_of_forests_arboricity_certificate(self, k):
        g = union_of_random_forests(60, k, seed=3)
        assert exact_arboricity(g) <= k

    def test_union_of_forests_density_near_k(self):
        g = union_of_random_forests(300, 3, seed=4)
        # Dedup loses a few edges, but density stays close to k.
        assert g.num_edges >= 2.5 * (g.num_vertices - 1)

    def test_gnm_exact_edges(self):
        g = random_gnm(30, 50, seed=5)
        assert g.num_edges == 50

    def test_gnm_too_dense_rejected(self):
        with pytest.raises(ValueError):
            random_gnm(4, 7, seed=0)

    def test_preferential_attachment_degeneracy(self):
        g = preferential_attachment(200, 3, seed=6)
        assert degeneracy(g) <= 3
        assert g.max_degree() > 6  # hubs emerge

    def test_preferential_attachment_tiny_n(self):
        g = preferential_attachment(3, 5, seed=0)
        assert g == complete_graph(3)


# A seed past 2^63 (SplitMix64 takes the seed mod 2^64) and the first
# graph seed of the end-to-end benchmark at its default seed,
# ``e2ebench.workloads.input_seeds(20260730, 1)[0]``.
_BIG_SEED = 2**63 + 12345
_BENCH_SEED = 3279829380

# sha256 of (n, offsets, targets) of every randomized generator, pinned
# from the scalar-draw implementation: a rewrite of a generator must
# reproduce its graphs bit for bit.
_GOLDEN = [
    ("random_tree", (0, 3), "ed74cd51ab28e765d1e98965e86ba749c807aff2e6f57fd424110bdd6a915d72"),
    ("random_tree", (50, 0), "7be61f98cf4a33c07a740dedbf8223eb3fb70d76131209fc0d16683c5490b38c"),
    ("random_tree", (300, _BIG_SEED), "05d9ddc18328ef98901e62b75497e04aa5da24c976574dae912e9f9077ba0da4"),
    ("random_forest", (1, 0, 0), "f80084d5ed9ac4fba082f5a82c98851fca133b317bc88c875d9c2d2c1e9218f2"),
    ("random_forest", (60, 40, 0), "98fdcf32ca6ea816aa3bed30a0e6ea4be638db726856c74d4480aa28817f7912"),
    ("random_forest", (300, 200, _BIG_SEED), "f2b34fa04f8cd98ca2120ef78c0ed9f34e074245a8a88e3fbd61c03e6dd962b3"),
    ("union_of_random_forests", (1, 3, 0), "f80084d5ed9ac4fba082f5a82c98851fca133b317bc88c875d9c2d2c1e9218f2"),
    ("union_of_random_forests", (50, 1, 2**64 - 1), "8a912b4925f1a714de066e93d9d5891276c410dc38404858b226b51f68be7259"),
    ("union_of_random_forests", (100, 3, 0), "fdd8157a928e3e8d45dc21c8b765cb324522e09b9069cc54969b70a465c4b915"),
    ("union_of_random_forests", (300, 3, _BIG_SEED), "c4026bbbecb7652b89deb23d140cf0bc632d348729fb824c3f3d94991f90ac42"),
    ("union_of_random_forests", (6000, 3, _BENCH_SEED), "607304ccf0394e64ffef39d874642dccb79264ce10477365ef20b77a3be8dc18"),
    ("random_gnm", (0, 0, 0), "ed74cd51ab28e765d1e98965e86ba749c807aff2e6f57fd424110bdd6a915d72"),
    ("random_gnm", (2, 1, 5), "e07388b1490813141dd0d06bc8700bfc85078e76a7bd430e4e1aa20dfec0c03a"),
    ("random_gnm", (100, 200, 0), "d33d2d2b5d5e575063fdb4d709d40723374ab12b4e528961824baece2dcd7fd2"),
    ("random_gnm", (300, 600, _BIG_SEED), "8bbc80a454e1bbd2cb06e41aabf3b2b1f614e148c5dba04b28f45150aa92b796"),
    ("random_gnm", (8000, 16000, _BENCH_SEED), "b64bacc524747706c11eadafd251e2f3c58f9d846a8911a7a4b62ace016afd5d"),
    # Near-complete: the last edges take many redraws of seen pairs.
    ("random_gnm", (100, 4950, 7), "d471bba1c9b251a85e10e5269dfd6e2b6096487bc7287efde87fdbfc1f419ade"),
    ("preferential_attachment", (100, 3, 0), "348630daa638bd665644974b187d1cb29e67fb02d55bdea1748a9d5f8a353294"),
    ("preferential_attachment", (300, 3, _BIG_SEED), "a83d2532219500337371616cfa6a0d5029197ec526a16870423530c32b557097"),
    ("preferential_attachment", (2000, 3, _BENCH_SEED), "a302b05d113a84950458236151360d926e56ecf3d2fabe12efe88d995d65e28a"),
    # n <= links: the complete graph, no draws.
    ("preferential_attachment", (4, 4, 1), "44e470dfa24de9727b768c8d58c8288d65ff8f57172f2608a33ee2c4fd234ce6"),
    ("preferential_attachment", (3, 5, 0), "f21a4d0ee0d2ce8760296d8a7b6e76f0626c7ec966f45a4980808f566ed0e321"),
]

_GENERATORS = {
    "random_tree": random_tree,
    "random_forest": random_forest,
    "union_of_random_forests": union_of_random_forests,
    "random_gnm": random_gnm,
    "preferential_attachment": preferential_attachment,
}


def _digest(g) -> str:
    offsets, targets = g.csr()
    h = hashlib.sha256(str(g.num_vertices).encode())
    h.update(np.ascontiguousarray(offsets, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(targets, dtype="<i8").tobytes())
    return h.hexdigest()


class TestGoldenDigests:
    @pytest.mark.parametrize(
        "name,args,expected", _GOLDEN, ids=[f"{n}{a}" for n, a, _ in _GOLDEN]
    )
    def test_graph_is_pinned(self, name, args, expected):
        assert _digest(_GENERATORS[name](*args)) == expected


class TestGeneratorErrors:
    """Every bad argument of a randomized generator is a ValueError."""

    @pytest.mark.parametrize(
        "call,match",
        [
            (lambda: random_tree(-5, seed=0), "non-negative"),
            (lambda: random_forest(10, 10, seed=0), "at most n-1"),
            (lambda: random_forest(10, -1, seed=0), "non-negative"),
            (lambda: union_of_random_forests(10, -1, seed=0), "k must be"),
            (lambda: union_of_random_forests(-5, 3, seed=0), "non-negative"),
            (lambda: union_of_random_forests(-5, 0, seed=0), "non-negative"),
            (lambda: random_gnm(4, 7, seed=0), "at most 6"),
            (lambda: random_gnm(-5, 3, seed=0), "non-negative"),
            (lambda: preferential_attachment(10, 0, seed=0), "links"),
        ],
        ids=[
            "tree-negative-n", "forest-too-many-edges", "forest-negative-edges",
            "forests-negative-k", "forests-negative-n", "forests-negative-n-k0",
            "gnm-too-dense", "gnm-negative-n", "pa-no-links",
        ],
    )
    def test_raises(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestSkewedGadget:
    def test_chain_layers_strictly_decreasing(self):
        beta, length = 3, 4
        g, chain = skewed_dependency_gadget(beta, length, fan=5)
        nat = natural_beta_partition(g, beta)
        layers = [nat.layer(c) for c in chain]
        assert layers == [length - i for i in range(length)]
        assert nat.is_valid(g, beta)

    def test_dependency_graph_contains_chain(self):
        beta = 2
        g, chain = skewed_dependency_gadget(beta, 3, fan=4)
        nat = natural_beta_partition(g, beta)
        dep = dependency_set(g, nat, chain[0])
        assert set(chain) <= dep

    def test_decoy_outside_dependency_graph(self):
        beta, length = 3, 3
        g, chain = skewed_dependency_gadget(beta, length, fan=4, decoy_fan=6)
        nat = natural_beta_partition(g, beta)
        decoy = length  # documented: first fresh id
        assert nat.layer(decoy) == nat.layer(chain[0])  # same layer as w_0
        dep = dependency_set(g, nat, chain[0])
        assert decoy not in dep
        assert nat.is_valid(g, beta)

    def test_decoy_has_high_degree(self):
        beta, length = 2, 3
        g, chain = skewed_dependency_gadget(beta, length, fan=2, decoy_fan=10)
        assert g.degree(length) == 10 + 1  # trees + w_0

    def test_small_decoy_fan_rejected(self):
        with pytest.raises(ValueError):
            skewed_dependency_gadget(3, 3, fan=2, decoy_fan=2)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            skewed_dependency_gadget(1, 3, fan=2)
        with pytest.raises(ValueError):
            skewed_dependency_gadget(2, 0, fan=2)

    def test_gadget_arboricity_is_one_tree_like(self):
        # Chain + pendant trees + fans = a tree plus the chain edges: still
        # arboricity 1 (it is connected and acyclic by construction).
        g, __ = skewed_dependency_gadget(2, 3, fan=3)
        assert is_forest(g.num_vertices, list(g.edges()))
