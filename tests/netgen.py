"""Hand-built and seeded random typed networks for solver tests.

network_of builds a HeteroNetwork from (a, b, weight) edge tuples.

Every generated network keeps the kind-pair rules, stays at or below 30
nodes, uses positive weights, and anchors every free component to at least
one clamped term: each B node gets an edge to a clamped T, each S to a B,
each M to an S, and each free (table-less) T to a B.

sweep_energies replays a solve sweep by sweep and records the energy
after each one.
"""

from __future__ import annotations

import random

import numpy as np

from bugloc.embeddings import EmbeddingTable
from bugloc.network import HeteroNetwork, TypedNode
from bugloc.regularizer import SolverConfig, energy, initialize_representation, sweep_update
from tables import make_table


def network_of(edges, nodes=()) -> HeteroNetwork:
    """The network of the given (a, b, weight) edges plus any further nodes,
    each row listing its neighbors in edge order."""
    order = tuple(sorted({*nodes, *(node for a, b, _ in edges for node in (a, b))}))
    row = {node: i for i, node in enumerate(order)}
    return HeteroNetwork.from_pairs(
        order,
        np.array([(row[a], row[b]) for a, b, _ in edges], dtype=np.intp).reshape(-1, 2),
        np.array([weight for _, _, weight in edges], dtype=np.float64),
    )


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
    energies = []
    for _ in range(config.max_iters):
        displacement = sweep_update(model, net)
        energies.append(energy(model, net))
        if displacement < config.tolerance:
            break
    return energies
