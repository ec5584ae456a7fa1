"""Shared fixtures and options for the test suite.

Adds two execution knobs:

- ``--workers N`` — worker count the parallel-equivalence suite
  exercises on top of its built-in {1, 2, 4} matrix (defaults to
  ``resolve_workers(None)``: ``$REPRO_WORKERS`` when set, else
  ``"auto"``, the usable CPU count; so the CI matrix leg that exports
  ``REPRO_WORKERS=2`` fans every large enough columnar lca round out
  over threads, and message-fabric rounds over the process pool).
- ``--slow`` — opt into tests marked ``slow`` (full-size shapes for the
  differential harness); they are deselected by default so the tier-1
  run stays fast, and CI's cron/label-gated job turns them on.

and two hypothesis settings profiles for tests that take their example
count from the profile rather than from ``@settings``: ``default``
(60 examples, the tier-1 run) and ``fuzz`` (1000 examples), which CI's
sanitized-kernel leg selects with ``--hypothesis-profile=fuzz``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.ampc.pool import resolve_workers
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_2d,
    path_graph,
    random_tree,
    star_graph,
    union_of_random_forests,
)
from repro.graphs.graph import Graph

settings.register_profile("default", max_examples=60)
settings.register_profile("fuzz", max_examples=1000)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--workers",
        type=int,
        default=resolve_workers(None),
        help="worker count the parallel-equivalence suite exercises "
        "in addition to its built-in matrix (default: $REPRO_WORKERS, "
        'which may be a count or "auto")',
    )
    parser.addoption(
        "--slow",
        action="store_true",
        default=False,
        help="run tests marked 'slow' (full-size differential shapes)",
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "slow: full-size shapes, skipped unless --slow is given "
        "(CI runs them in the cron/label-gated job)",
    )


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    if config.getoption("--slow"):
        return
    skip_slow = pytest.mark.skip(reason="slow shape; opt in with --slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def workers_option(request: pytest.FixtureRequest) -> int:
    """The --workers option value (>= 1)."""
    return max(1, int(request.config.getoption("--workers")))


@pytest.fixture
def fast_pool(monkeypatch: pytest.MonkeyPatch):
    """Pin :mod:`repro.ampc.pool`'s constants so tiny rounds go parallel.

    ``MIN_POOL_GAMES = 1`` sends every lca round with workers > 1 down
    the parallel path (threads, or the process pool under
    ``transport="message"``) and ``RETRY_BACKOFF_S = 0`` keeps chaos
    retries from sleeping.  Returns a setter for more pool constants,
    e.g. ``fast_pool(MAX_SHARD_RETRIES=0, POOL_DEGRADE=False)``.
    """
    from repro.ampc import pool

    def pin(**constants) -> None:
        for name, value in constants.items():
            monkeypatch.setattr(pool, name, value)

    pin(MIN_POOL_GAMES=1, RETRY_BACKOFF_S=0.0)
    return pin


@pytest.fixture
def triangle() -> Graph:
    return complete_graph(3)


@pytest.fixture
def small_tree() -> Graph:
    return random_tree(30, seed=100)


@pytest.fixture
def forest_union() -> Graph:
    """Union of 3 random spanning trees on 120 vertices: arboricity <= 3."""
    return union_of_random_forests(120, 3, seed=101)


@pytest.fixture
def small_grid() -> Graph:
    return grid_2d(6, 6)


@pytest.fixture(
    params=["path", "cycle", "star", "grid", "tree", "forests", "clique"]
)
def assorted_graph(request) -> Graph:
    """A representative zoo of small graphs for cross-cutting invariants."""
    return {
        "path": path_graph(15),
        "cycle": cycle_graph(12),
        "star": star_graph(20),
        "grid": grid_2d(5, 5),
        "tree": random_tree(40, seed=102),
        "forests": union_of_random_forests(60, 2, seed=103),
        "clique": complete_graph(8),
    }[request.param]
