"""Graph serialization: whitespace edge lists and JSON documents.

Lets users bring their own workloads to the pipelines and persist
generated benchmark graphs.  The edge-list dialect is the common
"``u v`` per line, ``#`` comments" format used by SNAP et al.; vertex
count is the max id + 1 unless given explicitly.

Real-world SNAP-style files routinely contain self-loops and duplicate
edges (both orientations of the same pair count as duplicates), which the
paper's simple-graph model rejects.  :func:`read_edge_list` therefore
parses in two modes: ``strict=True`` (default) raises a
:class:`ValueError` naming the file and line of the first offending
entry; ``strict=False`` silently drops them and reports how many were
dropped through the optional ``stats`` dict and a :mod:`warnings`
message.  Vertex ids are validated against ``num_vertices`` *during*
parsing, so an out-of-range id is reported with its file and line rather
than surfacing later as an opaque construction error.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["read_edge_list", "write_edge_list", "graph_to_json", "graph_from_json"]


def read_edge_list(
    path: str | Path,
    num_vertices: int | None = None,
    strict: bool = True,
    stats: dict | None = None,
) -> Graph:
    """Parse a ``u v`` per-line edge list (``#`` starts a comment).

    Parameters
    ----------
    num_vertices:
        Explicit vertex count; ids are checked against it line by line.
        Defaults to max id + 1.
    strict:
        With ``strict=True`` (default) a self-loop or duplicate edge
        raises ``ValueError`` with the file path and line number.  With
        ``strict=False`` such lines are skipped; the drop counts are
        reported via ``stats`` and a ``UserWarning``.
    stats:
        Optional dict populated with ``self_loops_dropped``,
        ``duplicates_dropped``, and ``edges_kept``.
    """
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    self_loops = 0
    duplicates = 0
    max_id = -1
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'u v', got {body!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-integer vertex id in {body!r}") from None
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{line_no}: negative vertex id")
            if num_vertices is not None and (u >= num_vertices or v >= num_vertices):
                raise ValueError(
                    f"{path}:{line_no}: vertex id {max(u, v)} out of range "
                    f"for num_vertices={num_vertices}"
                )
            # A vertex mentioned only on a dropped line still exists, so
            # max_id must be updated before the skip paths below.
            if v > max_id or u > max_id:
                max_id = max(max_id, u, v)
            if u == v:
                if strict:
                    raise ValueError(
                        f"{path}:{line_no}: self-loop at vertex {u} "
                        "(use strict=False to skip)"
                    )
                self_loops += 1
                continue
            key = (u, v) if u < v else (v, u)
            if key in seen:
                if strict:
                    raise ValueError(
                        f"{path}:{line_no}: duplicate edge ({u}, {v}) "
                        "(use strict=False to skip)"
                    )
                duplicates += 1
                continue
            seen.add(key)
            edges.append(key)
    if stats is not None:
        stats["self_loops_dropped"] = self_loops
        stats["duplicates_dropped"] = duplicates
        stats["edges_kept"] = len(edges)
    if self_loops or duplicates:
        warnings.warn(
            f"{path}: dropped {self_loops} self-loop(s) and "
            f"{duplicates} duplicate edge(s)",
            stacklevel=2,
        )
    n = num_vertices if num_vertices is not None else max_id + 1
    return Graph.from_edges(n, edges)


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write one ``u v`` line per edge (u < v), plus a header comment."""
    with open(path, "w") as handle:
        handle.write(
            f"# n={graph.num_vertices} m={graph.num_edges} (repro edge list)\n"
        )
        for u, v in graph.edge_array():
            handle.write(f"{u} {v}\n")


def graph_to_json(graph: Graph) -> str:
    """Serialize to a compact JSON document."""
    return json.dumps(
        {
            "format": "repro-graph",
            "version": 1,
            "num_vertices": graph.num_vertices,
            "edges": graph.edge_array().tolist(),
        }
    )


def graph_from_json(document: str) -> Graph:
    """Inverse of :func:`graph_to_json`."""
    data = json.loads(document)
    if data.get("format") != "repro-graph":
        raise ValueError("not a repro-graph document")
    edges = np.asarray(data["edges"], dtype=np.int64).reshape(-1, 2)
    return Graph.from_arrays(data["num_vertices"], edges)
