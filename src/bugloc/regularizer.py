"""Clamped graph smoothing over the heterogeneous network.

Every node gets a d-dimensional vector, one row of the model's matrix.
Term nodes with a known embedding are clamped to it; all remaining nodes
are free and relax to the weighted average of their neighbors, which
minimizes the edge-weighted sum of squared differences.

solve() finds that minimum on the network's arrays by in-place
Gauss-Seidel sweeps, planned once, until the largest per-node move drops
below the tolerance. A sweep updates one kind at a time, each as one
sparse product: edges only join B-T, B-S and S-M, so nodes of one kind
never read each other and the whole-kind update is exactly the
node-by-node one. These products, over the network's CSR arrays, are the
package's only use of scipy.
The tests check the solve against a second, independent route, one sparse
LU solve of the harmonic system (tests/solveref.py).

Free nodes in a component with no clamped node have no information source;
they stay at zero, and a diagnostic, read from the network's single
connected-component labelling, is logged and kept in the solve's report.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from itertools import chain, compress
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingTable
from .errors import (
    ValidationError, file_sha256, read_array, read_records, read_strings, replacing, write_records,
)
from .network import KINDS, HeteroNetwork, NodeTable, TypedNode

logger = logging.getLogger(__name__)

# order in which free nodes are visited within one sweep
_SWEEP_KINDS = ("T", "B", "S", "M", "S", "B")


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 100
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not 0.0 < self.tolerance < np.inf:
            raise ValidationError(f"tolerance must be positive and finite, got {self.tolerance!r}")


@dataclass(frozen=True)
class ConvergenceReport:
    iterations: int
    converged: bool
    final_displacement: float
    final_energy: float
    isolated_components: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RepresentationModel:
    """One vector per network node, as rows of a matrix, and which rows are
    clamped, as a boolean mask over the rows.

    Row i belongs to nodes[i]. The mask is the one record of the clamped
    set; `clamped` derives the nodes from it. network_digest names the
    network it was solved over (pipeline.network_digest).
    """

    nodes: NodeTable
    matrix: np.ndarray  # len(nodes) x dim
    clamped_rows: np.ndarray  # bool per row
    convergence: ConvergenceReport | None = None
    network_digest: str = ""

    @cached_property
    def clamped(self) -> frozenset[TypedNode]:
        return frozenset(compress(self.nodes, self.clamped_rows))

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def vector(self, node: TypedNode) -> np.ndarray:
        return self.matrix[self.nodes.row(node)]


def clamp_rows(nodes: NodeTable, table: EmbeddingTable) -> np.ndarray:
    """The table row each node is clamped to, or -1 for a free node: a T
    node whose term the table holds is clamped to its embedding, and every
    other node, a T node missing from the table too, is free."""
    rows = np.full(len(nodes), -1)
    terms = nodes.rows("T")
    rows[terms] = table.rows_of(nodes.keys[terms])
    return rows


def initialize_representation(net: HeteroNetwork, table: EmbeddingTable) -> RepresentationModel:
    """Clamp nodes to their clamp_rows embedding; zero everything else."""
    rows = clamp_rows(net.nodes, table)
    clamped = rows >= 0
    matrix = np.zeros((len(net.nodes), table.dim))
    matrix[clamped] = table.matrix[rows[clamped]]
    return RepresentationModel(net.nodes, matrix, clamped)


def _check_aligned(model: RepresentationModel, net: HeteroNetwork) -> None:
    if model.nodes is not net.nodes and model.nodes != net.nodes:
        raise ValidationError("the model's nodes differ from the network's")


def _scipy_adjacency(net: HeteroNetwork):
    """The network's adjacency as a scipy csr_array over the same arrays."""
    from scipy import sparse

    adj = net.adjacency
    return sparse.csr_array((adj.data, adj.indices, adj.indptr), adj.shape)


def sweep_plan(model: RepresentationModel, net: HeteroNetwork) -> list[tuple]:
    """The steps of one Gauss-Seidel sweep, fixed for a whole solve: for each
    kind of _SWEEP_KINDS, in order, that has movable rows (free, with a
    neighbor), those rows, their rows of the adjacency in stored order and
    their degrees as a column. No other row ever moves."""
    _check_aligned(model, net)
    movable = ~model.clamped_rows & (net.degree > 0)
    adjacency, steps = _scipy_adjacency(net), {}
    for kind in KINDS:
        block = net.nodes.rows(kind)
        rows = block.start + np.flatnonzero(movable[block])
        if rows.size:
            steps[kind] = (rows, adjacency[rows], net.degree[rows, None])
    return [steps[kind] for kind in _SWEEP_KINDS if kind in steps]


def sweep_update(model: RepresentationModel, plan: list[tuple]) -> float:
    """Run one Gauss-Seidel sweep of sweep_plan's steps in place; return the
    largest L2 node move. A step sets a kind's movable nodes to the weighted
    average of their neighbors, earlier steps' updates included, all at once:
    no edge joins two nodes of one kind, so that equals visiting them one by one."""
    max_disp = 0.0
    for rows, adjacency, degree in plan:
        update = adjacency @ model.matrix
        update /= degree
        max_disp = max(max_disp, float(np.linalg.norm(update - model.matrix[rows], axis=1).max()))
        model.matrix[rows] = update
    return max_disp


def energy(model: RepresentationModel, net: HeteroNetwork) -> float:
    """Edge-weighted sum of squared vector differences, each edge counted once.

    Computed as the Laplacian quadratic form sum_i deg_i |x_i|^2 - tr(X' A X),
    which needs node-sized temporaries only, not one row per edge.
    """
    _check_aligned(model, net)
    x = model.matrix
    return float(net.degree @ np.einsum("ij,ij->i", x, x) - np.vdot(x, _scipy_adjacency(net) @ x))


def _isolate(model: RepresentationModel, net: HeteroNetwork) -> tuple[np.ndarray, tuple[str, ...]]:
    """Find and log the components with no clamped node; return the mask of
    their rows and one diagnostic per component."""
    isolated, components = net.components_without(model.clamped_rows)
    messages = tuple(
        f"component of {size} free nodes (e.g. {sample.kind}:{sample.key}) "
        f"has no clamped node; vectors stay zero"
        for size, sample in components
    )
    for msg in messages:
        logger.warning("%s", msg)
    return isolated, messages


def solve(
    net: HeteroNetwork,
    table: EmbeddingTable,
    config: SolverConfig | None = None,
    initial: RepresentationModel | None = None,
) -> RepresentationModel:
    """Relax free nodes by repeated sweeps until convergence.

    Stops when the largest per-node move in a sweep falls below
    config.tolerance, or after config.max_iters sweeps. The returned model
    carries a ConvergenceReport; clamped vectors are bit-identical to the
    table. `initial` substitutes a custom starting model over the same
    nodes, used to check that the fixed point does not depend on
    initialization.
    """
    config = config or SolverConfig()
    model = initial if initial is not None else initialize_representation(net, table)
    plan = sweep_plan(model, net)
    _, isolated_components = _isolate(model, net)
    for iterations in range(1, config.max_iters + 1):
        displacement = sweep_update(model, plan)
        if displacement < config.tolerance:
            break
    converged = displacement < config.tolerance
    if not converged:
        logger.warning(
            "solver did not converge in %d sweeps (last move %.3g)",
            config.max_iters,
            displacement,
        )
    model.convergence = ConvergenceReport(
        iterations=iterations,
        converged=converged,
        final_displacement=displacement,
        final_energy=energy(model, net),
        isolated_components=isolated_components,
    )
    return model


def _format_row(row: np.ndarray) -> str:
    """A float64 row as model text: the repr of each value, space-separated."""
    return " ".join(map(repr, row.tolist()))


def dump_model(model: RepresentationModel, path) -> None:
    """Write the model as a text table: header JSON line, then one node per
    line, in node order; and its record file (record_path), which load_model
    reads. The text is an export for people and other tools, and the
    record's key: load_model needs both.

    Floats are written with repr, so the text holds them bit-exactly. The
    text is hashed as it is written, and renamed into place only after the
    record keyed by its sha256, so an interrupted dump keeps the old model.
    """
    for key in model.nodes.keys:
        if "\t" in key or "\n" in key:
            raise ValidationError(f"node key {key!r} cannot be serialized")
    matrix = np.ascontiguousarray(model.matrix, dtype=np.float64)
    header = {
        "dim": matrix.shape[1], "nodes": len(model.nodes), "network_digest": model.network_digest
    }
    lines = (
        f"{kind}\t{key}\t{'c' if clamped else 'f'}\t{_format_row(row)}\n"
        for (kind, key), clamped, row in zip(model.nodes, model.clamped_rows, matrix)
    )
    digest = hashlib.sha256()
    with replacing(path) as fh:
        for line in chain([json.dumps(header, sort_keys=True) + "\n"], lines):
            data = line.encode("utf-8")
            digest.update(data)
            fh.write(data)
        header.update(sha256=digest.hexdigest(), bounds=list(model.nodes.bounds))
        records = (model.nodes.keys, np.asarray(model.clamped_rows, dtype=bool), matrix)
        write_records(record_path(path), header, records)


def record_path(path) -> Path:
    """Where dump_model writes the record of the model text at path, the
    file load_model reads."""
    return Path(f"{path}.bin")


def _parse_record(sha256: str, header: dict, fh) -> RepresentationModel:
    """The model in a record file of the model text whose sha256 is given;
    ValueError on any miss: another key, kind bounds that do not split the
    nodes, nodes out of node order, or a value that is not finite."""
    if header.get("sha256") != sha256:
        raise ValueError("keyed by another text")
    nodes, dim, bounds = header.get("nodes"), header.get("dim"), header.get("bounds")
    network = header.get("network_digest")
    keys = read_strings(fh, nodes)
    clamped = read_array(fh, bool, (nodes,))
    matrix = read_array(fh, np.float64, (nodes, dim))
    well_formed = (
        type(dim) is int  # a null dim would match any width
        and isinstance(network, str)
        and isinstance(bounds, list)
        and len(bounds) == len(KINDS) + 1
        and all(type(bound) is int for bound in bounds)
        and bounds == sorted(bounds)
        and bounds[0] == 0
        and bounds[-1] == nodes
        and np.isfinite(matrix).all()
    )
    if not well_formed:
        raise ValueError("malformed record")
    table = NodeTable(keys, tuple(bounds))
    for kind in KINDS:
        block = keys[table.rows(kind)]
        if any(a >= b for a, b in zip(block, block[1:])):
            raise ValueError("nodes out of node order")
    return RepresentationModel(table, matrix, clamped, network_digest=network)


def load_model(path) -> RepresentationModel:
    """The model that dump_model wrote to path, read from its record file
    (record_path). The text at path keys the record and is only hashed: a
    text that cannot be read raises a ValidationError naming it. The record
    must be keyed by the text's sha256 and pass every check of
    _parse_record; any miss, the record missing, damaged, foreign or
    written for another text, raises a ValidationError naming the record."""
    try:
        sha256 = file_sha256(path)
    except OSError as exc:
        raise ValidationError(f"cannot read model {path}: {exc}") from exc
    record = record_path(path)
    model = read_records(record, partial(_parse_record, sha256))
    if model is None:
        raise ValidationError(f"{record}: missing, damaged or not the record of {path}; solve again")
    return model
