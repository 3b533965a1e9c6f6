"""Graph substrate for percolated walks.

Immutable undirected graphs with an indexed edge list, named generators for
the standard test geometries, an edge-list file format, and Bernoulli
sampling of edge-subset realizations. A realization is the set of edges
kept at one step, held as a row of keep bits: entry k keeps edge k.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

# The exact channel's enumeration over 2^edge_count realizations is refused
# above this; larger graphs must use the Monte Carlo backend.
MAX_ENUM_EDGES = 24


class CapacityError(ValueError):
    """Exact enumeration over edge subsets is infeasible for this graph."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with a fixed, indexed edge list.

    The edge order is fixed at construction and defines the positions of
    keep-bit rows.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.node_count <= 0:
            raise ValueError("node_count must be positive")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u},{v}) out of range for {self.node_count} nodes")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as an (edge_count, 2) int64 array, in keep-bit order."""
        arr = np.asarray(self.edges, dtype=np.int64).reshape(len(self.edges), 2)
        arr.setflags(write=False)
        return arr

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.node_count, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def make_ring(n: int) -> Graph:
    """Cycle graph on n nodes; n = 2 degenerates to a single edge."""
    if n < 2:
        raise ValueError(f"ring needs at least 2 nodes, got {n}")
    if n == 2:
        return Graph(node_count=2, edges=((0, 1),))
    return Graph(node_count=n, edges=tuple((i, (i + 1) % n) for i in range(n)))


def make_lattice2d(width: int, height: int) -> Graph:
    """Rectangular lattice, node index = row*width + col, open boundaries."""
    if width < 1 or height < 1:
        raise ValueError(f"lattice dimensions must be positive, got {width}x{height}")
    edges: list[tuple[int, int]] = []
    for r in range(height):
        for c in range(width):
            i = r * width + c
            if c + 1 < width:
                edges.append((i, i + 1))
            if r + 1 < height:
                edges.append((i, i + width))
    return Graph(node_count=width * height, edges=tuple(edges))


def make_complete(n: int) -> Graph:
    """Complete graph: all n(n-1)/2 unordered pairs."""
    if n < 2:
        raise ValueError(f"complete graph needs at least 2 nodes, got {n}")
    return Graph(node_count=n, edges=tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def write_edge_file(g: Graph, path: str | Path) -> None:
    """Write the "nodes N" header plus one "u v" line per edge."""
    lines = [f"nodes {g.node_count}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_edge_file(path: str | Path) -> Graph:
    """Read the edge-list format: header "nodes N", then "u v" lines.

    Lines starting with '#' and blank lines are ignored. The header is
    required so graphs with isolated nodes stay representable.
    """
    node_count = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if node_count is None:
            if len(parts) != 2 or parts[0] != "nodes":
                raise ValueError(f"{path}:{lineno}: expected header 'nodes <N>', got {line!r}")
            node_count = int(parts[1])
            continue
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if node_count is None:
        raise ValueError(f"{path}: missing 'nodes <N>' header")
    return Graph(node_count=node_count, edges=tuple(edges))


def graph_from_spec(spec: str) -> Graph:
    """Build a graph from a CLI spec string.

    Accepted forms: "ring:N", "lattice2d:WxH", "complete:N", "file:PATH".
    """
    kind, sep, arg = spec.partition(":")
    if not sep or not arg:
        raise ValueError(f"bad graph spec {spec!r}; expected kind:arg")
    if kind == "ring":
        return make_ring(int(arg))
    if kind == "complete":
        return make_complete(int(arg))
    if kind == "lattice2d":
        dims = arg.lower().split("x")
        if len(dims) != 2:
            raise ValueError(f"bad lattice spec {spec!r}; expected lattice2d:WxH")
        return make_lattice2d(int(dims[0]), int(dims[1]))
    if kind == "file":
        return read_edge_file(arg)
    raise ValueError(f"unknown graph kind {kind!r} in spec {spec!r}")


def rng_from_seed(seed: int, stream: int | None = None) -> np.random.Generator:
    """PCG64 generator seeded through SeedSequence.

    ``stream`` selects an independent sub-stream via the SeedSequence spawn
    key, giving reproducible per-trajectory generators: stream k is
    SeedSequence(seed, spawn_key=(k,)).
    """
    if stream is None:
        ss = np.random.SeedSequence(seed)
    else:
        ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


def sample_keep_bits(g: Graph, lam: float, rng: np.random.Generator, steps: int = 1) -> np.ndarray:
    """Sample a (steps, edge_count) uint8 array of independent keep bits.

    Row s is the realization drawn for step s; consuming rows in order is
    stream-equivalent to repeated single-step sampling.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam}")
    return (rng.random((steps, g.edge_count)) < lam).astype(np.uint8)
