"""Hand-built and seeded random typed networks for solver tests.

table_of turns TypedNodes into a NodeTable, and network_of builds a
HeteroNetwork from (a, b, weight) edge tuples, through edge_arrays, the
node table and arrays that HeteroNetwork.from_pairs takes.

Every generated network keeps the kind-pair rules, stays at or below 30
nodes, uses positive weights, and anchors every free component to at least
one clamped term: each B node gets an edge to a clamped T, each S to a B,
each M to an S, and each free (table-less) T to a B.

edge_lists is a hypothesis strategy for looser networks, with no such
anchors: any kind may have no nodes, nodes may have no edges, and there
may be no edges at all.

sweep_energies replays a solve sweep by sweep and records the energy
after each one.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import strategies as st

from bugloc.embeddings import EmbeddingTable
from bugloc.network import HeteroNetwork, NodeTable, TypedNode
from bugloc.regularizer import (
    SolverConfig, energy, initialize_representation, sweep_plan, sweep_update,
)
from tables import make_table


def table_of(nodes) -> NodeTable:
    """The node table of some TypedNodes, given in any order."""
    blocks = {}
    for kind, key in sorted(set(nodes)):
        blocks.setdefault(kind, []).append(key)
    return NodeTable.of(blocks)


def edge_arrays(edges, nodes=()) -> tuple[NodeTable, np.ndarray, np.ndarray]:
    """The node table of the given (a, b, weight) edges plus any further
    nodes, each edge's pair of rows and each edge's weight."""
    table = table_of([*nodes, *(node for a, b, _ in edges for node in (a, b))])
    return (
        table,
        np.array([(table.row(a), table.row(b)) for a, b, _ in edges], dtype=np.intp).reshape(-1, 2),
        np.array([weight for _, _, weight in edges], dtype=np.float64),
    )


def network_of(edges, nodes=()) -> HeteroNetwork:
    """The network of the given (a, b, weight) edges plus any further nodes,
    each row listing its neighbors in edge order."""
    return HeteroNetwork.from_pairs(*edge_arrays(edges, nodes))


@st.composite
def edge_lists(draw):
    """(edges, nodes) for network_of: up to 5 nodes of each kind, any of
    them without edges, and a drawn set of the allowed T-B, B-S and S-M
    pairs as edges, in drawn order and direction, with weights spread over
    six decades, so that a row's sum may depend on its order."""
    nodes = [
        TypedNode(kind, f"{kind.lower()}{i}")
        for kind in "BTSM"
        for i in range(draw(st.integers(0, 5)))
    ]
    allowed = [
        (a, b)
        for a in nodes
        for b in nodes
        if (a.kind, b.kind) in {("T", "B"), ("B", "S"), ("S", "M")}
    ]
    chosen = draw(st.lists(st.sampled_from(allowed), unique=True)) if allowed else []
    edges = [
        (*(pair if draw(st.booleans()) else pair[::-1]), draw(st.floats(1e-3, 1e3)))
        for pair in chosen
    ]
    return edges, nodes


def components(net: HeteroNetwork):
    """Connected components as node lists, in sorted-start order."""
    seen = set()
    for start in sorted(net.nodes):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            node = queue.pop()
            for nbr in net.neighbors(node):
                if nbr not in seen:
                    seen.add(nbr)
                    comp.append(nbr)
                    queue.append(nbr)
        yield comp


def random_network(rng: random.Random, dim: int | None = None):
    dim = dim if dim is not None else rng.randint(1, 4)
    n_clamped = rng.randint(1, 6)
    n_free_t = rng.randint(0, 2)
    n_b = rng.randint(1, 6)
    n_s = rng.randint(0, 6)
    n_m = rng.randint(0, 4) if n_s else 0

    def weight():
        return rng.uniform(0.1, 2.0)

    edges = []
    linked = set()

    def link(a, b):
        edges.append((a, b, weight()))
        linked.update({(a, b), (b, a)})

    clamped_t = [TypedNode("T", f"term{i}") for i in range(n_clamped)]
    free_t = [TypedNode("T", f"oov{i}") for i in range(n_free_t)]
    bugs = [TypedNode("B", f"bug{i}") for i in range(n_b)]
    files = [TypedNode("S", f"src/f{i}.java") for i in range(n_s)]
    buckets = [TypedNode("M", f"metric:{i}") for i in range(n_m)]
    for b in bugs:
        link(rng.choice(clamped_t), b)
        for t in clamped_t:
            if (t, b) not in linked and rng.random() < 0.25:
                link(t, b)
    for t in free_t:
        link(t, rng.choice(bugs))
    for s in files:
        link(rng.choice(bugs), s)
        for b in bugs:
            if (b, s) not in linked and rng.random() < 0.15:
                link(b, s)
    for m in buckets:
        link(rng.choice(files), m)
        for s in files:
            if (s, m) not in linked and rng.random() < 0.15:
                link(s, m)
    table = make_table(
        dim,
        {
            t.key: np.array([rng.uniform(-1.0, 1.0) for _ in range(dim)])
            for t in clamped_t
        },
    )
    return network_of(edges, clamped_t), table


def sweep_energies(net: HeteroNetwork, table: EmbeddingTable, config: SolverConfig) -> list[float]:
    """The energy after each sweep that solve(net, table, config) runs."""
    model = initialize_representation(net, table)
    plan, energies = sweep_plan(model, net), []
    for _ in range(config.max_iters):
        displacement = sweep_update(model, plan)
        energies.append(energy(model, net))
        if displacement < config.tolerance:
            break
    return energies
