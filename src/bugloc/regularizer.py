"""Clamped graph smoothing over the heterogeneous network.

Every node gets a d-dimensional vector, one row of the model's matrix.
Term nodes with a known embedding are clamped to it; all remaining nodes
are free and relax to the weighted average of their neighbors, which
minimizes the edge-weighted sum of squared differences.

solve() finds that minimum by Jacobi-preconditioned conjugate gradients
(conjugate_gradients) on a reduced system (ReducedSystem): no edge joins
two report (B) nodes, so the free B rows are eliminated exactly and
recovered once at the end as the weighted average of their neighbors, and
the unknowns are the free files, buckets and terms. Every product over
the network's CSR is a corpus.RowProduct, numpy alone, so the module
imports no scipy. The tests check the solve against a second, independent
route, one sparse LU solve of the harmonic system (tests/solveref.py).
sweep_plan and sweep_update, a Gauss-Seidel sweep that no command runs
and that multiplies through RowProduct too, are kept only for the
benchmark's tracer, which names sweep_update.

Free nodes in a component with no clamped node have no information source;
they come back zero, and a diagnostic, read from the network's single
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
from typing import Iterator

import numpy as np

from .corpus import RowProduct, longest_first
from .embeddings import EmbeddingTable
from .errors import (
    ValidationError, file_sha256, read_array, read_records, read_strings, replacing, write_records,
)
from .network import KINDS, HeteroNetwork, NodeTable, TypedNode

logger = logging.getLogger(__name__)

# entries of the adjacency per block in energy, so its temporaries stay small
_ENERGY_BLOCK = 1 << 12

# order in which free nodes are visited within one Gauss-Seidel sweep (see
# sweep_plan)
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


# A Gauss-Seidel sweep: nothing in the package calls sweep_plan or
# sweep_update. They stay only because bench/tracer.py wraps sweep_update by
# name, and go when the benchmark stops pinning it (ROADMAP item 1(b)).
def sweep_plan(model: RepresentationModel, net: HeteroNetwork) -> list[tuple]:
    """The steps of one Gauss-Seidel sweep, fixed for a whole solve: for each
    kind of _SWEEP_KINDS, in order, that has movable rows (free, with a
    neighbor), those rows in longest_first order, the RowProduct of their
    rows of the adjacency and their degrees as a column. No other row ever
    moves."""
    _check_aligned(model, net)
    movable = ~model.clamped_rows & (net.degree > 0)
    adj, steps, columns = net.adjacency, {}, np.arange(len(net.nodes))
    for kind in KINDS:
        block = net.nodes.rows(kind)
        rows = longest_first(adj, block.start + np.flatnonzero(movable[block]), columns >= 0)
        if rows.size:
            steps[kind] = (rows, RowProduct(adj, rows, columns), net.degree[rows, None])
    return [steps[kind] for kind in _SWEEP_KINDS if kind in steps]


def sweep_update(model: RepresentationModel, plan: list[tuple]) -> float:
    """Run one Gauss-Seidel sweep of sweep_plan's steps in place; return the
    largest L2 node move. A step sets a kind's movable nodes to the weighted
    average of their neighbors, earlier steps' updates included, all at once:
    no edge joins two nodes of one kind, so that equals visiting them one by one."""
    max_disp = 0.0
    for rows, product, degree in plan:
        update = np.empty((len(rows), model.dim))
        product.apply(model.matrix, update)
        update /= degree
        max_disp = max(max_disp, float(np.linalg.norm(update - model.matrix[rows], axis=1).max()))
        model.matrix[rows] = update
    return max_disp


def energy(model: RepresentationModel, net: HeteroNetwork) -> float:
    """Edge-weighted sum of squared vector differences, each edge counted once.

    The edges are taken _ENERGY_BLOCK stored entries at a time, so the
    temporaries stay small whatever the network's size.
    """
    _check_aligned(model, net)
    adj, x = net.adjacency, model.matrix
    rows = adj.row_ids()
    upper = np.flatnonzero(adj.indices > rows)  # each edge once, from its smaller row
    total = 0.0
    for start in range(0, len(upper), _ENERGY_BLOCK):
        block = upper[start : start + _ENERGY_BLOCK]
        diff = x[rows[block]] - x[adj.indices[block]]
        total += float(adj.data[block] @ np.einsum("ij,ij->i", diff, diff))
    return total


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


class ReducedSystem:
    """The harmonic system of a model's free rows with the report (B) rows
    eliminated.

    The unknowns X_F are the free rows outside B that have a clamped node
    in their component: files, buckets and terms without an embedding. No
    edge joins two B nodes, so a free B row is the weighted mean of its
    neighbors, D_B^-1 (A_BC X_C + A_BF X_F) with C the clamped rows, and X_F
    solves

        (D_F - A_FF - A_FB D_B^-1 A_BF) X_F = A_FC X_C + A_FB D_B^-1 A_BC X_C.

    The matrix is never formed: apply() takes two planned products
    (RowProduct) over the network's CSR, B rows reading X_F, then F rows
    reading the B part and X_F stacked. The clamped parts are taken once. The B
    rows are held in the first product's row order and the F rows in the
    second's, so neither product reorders; write() puts every row back.
    The rows of a component with no clamped node, `isolated`, free nodes
    without an edge among them, are no unknowns and come back zero.
    """

    def __init__(self, model: RepresentationModel, net: HeteroNetwork, isolated: np.ndarray):
        adj, clamped, num_nodes = net.adjacency, model.clamped_rows, len(net.nodes)
        free = ~clamped & ~isolated
        in_b = np.zeros(num_nodes, dtype=bool)
        in_b[net.nodes.rows("B")] = True
        in_f = free & ~in_b
        self.b_rows = longest_first(adj, np.flatnonzero(free & in_b), in_f)
        self.f_rows = longest_first(adj, np.flatnonzero(in_f), free)
        self.isolated = isolated
        num_b, num_f, dim = len(self.b_rows), len(self.f_rows), model.dim
        column = np.full(num_nodes, -1)
        column[self.b_rows] = np.arange(num_b)
        column[self.f_rows] = num_b + np.arange(num_f)
        self.to_b = RowProduct(adj, self.b_rows, np.where(in_f, column - num_b, -1))
        self.to_f = RowProduct(adj, self.f_rows, column)
        self.b_degree = net.degree[self.b_rows, None]
        self.f_degree = net.degree[self.f_rows, None]
        self.spare = np.empty((num_b + num_f, dim))
        # A_UC X_C over the free rows U, the B rows and then X_F's, taken once
        by_clamped = longest_first(adj, np.flatnonzero(free), clamped)
        sums = np.empty((len(by_clamped), dim))
        to_clamped = RowProduct(adj, by_clamped, np.where(clamped, np.arange(num_nodes), -1))
        to_clamped.apply(model.matrix, sums, self.spare)
        self.clamped_sums = np.empty_like(sums)
        self.clamped_sums[column[by_clamped]] = sums
        # `stacked` holds what the F rows read: the B part, then X_F
        self.stacked = np.zeros((num_b + num_f, dim))
        self.stacked[:num_b] = self.clamped_sums[:num_b] / self.b_degree
        self.rhs = np.empty((num_f, dim))
        self.to_f.apply(self.stacked, self.rhs, self.spare)
        self.rhs += self.clamped_sums[num_b:]
        self.x = model.matrix[self.f_rows]

    def apply(self, vector: np.ndarray, out: np.ndarray) -> None:
        """out = the reduced matrix times vector, one row per unknown."""
        num_b = len(self.b_rows)
        b_part = self.stacked[:num_b]
        self.to_b.apply(vector, b_part, self.spare)
        b_part /= self.b_degree
        self.stacked[num_b:] = vector
        self.to_f.apply(self.stacked, out, self.spare)
        scaled = np.multiply(vector, self.f_degree, out=self.spare[: len(vector)])
        np.subtract(scaled, out, out=out)

    def scaled_residual(self, residual: np.ndarray) -> float:
        """The largest ||r_i|| / deg_i over the unknowns; 0.0 without any."""
        norms = np.sqrt(np.einsum("ij,ij->i", residual, residual)) / self.f_degree[:, 0]
        return float(norms.max(initial=0.0))

    def write(self, matrix: np.ndarray) -> None:
        """Put the current X_F into matrix, each free B row as the weighted
        mean of its neighbors, and zeros in the isolated rows."""
        num_b = len(self.b_rows)
        b_sums = self.stacked[:num_b]
        self.to_b.apply(self.x, b_sums, self.spare)
        b_sums += self.clamped_sums[:num_b]
        matrix[self.b_rows] = b_sums / self.b_degree
        matrix[self.f_rows] = self.x
        matrix[self.isolated] = 0.0


def conjugate_gradients(system: ReducedSystem, config: SolverConfig) -> Iterator[tuple[int, float]]:
    """Solve the reduced system in place of system.x by Jacobi-preconditioned
    conjugate gradients, all d columns at once, each with its own step
    sizes. Yields (iterations run, scaled residual) at the start and after
    each iteration, and stops once the scaled residual (scaled_residual)
    falls below config.tolerance or config.max_iters iterations have run.
    Its vectors are made once."""
    x, q = system.x, np.empty_like(system.x)
    system.apply(x, q)
    r = system.rhs - q
    z = r / system.f_degree
    p = z.copy()
    rz = np.einsum("ij,ij->j", r, z)
    iterations, residual = 0, system.scaled_residual(r)
    yield iterations, residual
    while residual >= config.tolerance and iterations < config.max_iters:
        system.apply(p, q)
        pq = np.einsum("ij,ij->j", p, q)
        # a column that has converged exactly has no direction; it takes no step
        alpha = np.divide(rz, pq, out=np.zeros_like(rz), where=pq > 0.0)
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(q, alpha, out=z)
        np.divide(r, system.f_degree, out=z)
        rz, last = np.einsum("ij,ij->j", r, z), rz
        p *= np.divide(rz, last, out=np.zeros_like(rz), where=last > 0.0)
        p += z
        iterations, residual = iterations + 1, system.scaled_residual(r)
        yield iterations, residual


def solve(
    net: HeteroNetwork,
    table: EmbeddingTable,
    config: SolverConfig | None = None,
    initial: RepresentationModel | None = None,
) -> RepresentationModel:
    """Solve for the free rows by conjugate_gradients on the ReducedSystem.

    Starts from the initial model's free rows and stops when the largest
    scaled residual ||r_i|| / deg_i over the unknowns falls below
    config.tolerance, or after config.max_iters iterations. The returned
    model carries a ConvergenceReport; clamped vectors are bit-identical to
    the table, and the rows of components with no clamped node are zero.
    `initial` substitutes a custom starting model over the same nodes, used
    to check that the solution does not depend on initialization.
    """
    config = config or SolverConfig()
    model = initial if initial is not None else initialize_representation(net, table)
    _check_aligned(model, net)
    isolated, isolated_components = _isolate(model, net)
    system = ReducedSystem(model, net, isolated)
    for iterations, residual in conjugate_gradients(system, config):
        pass
    system.write(model.matrix)
    converged = residual < config.tolerance
    if not converged:
        logger.warning(
            "solver did not converge in %d iterations (scaled residual %.3g)",
            config.max_iters,
            residual,
        )
    model.convergence = ConvergenceReport(
        iterations=iterations,
        converged=converged,
        final_displacement=residual,
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
