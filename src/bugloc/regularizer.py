"""Clamped graph smoothing over the heterogeneous network.

Every node gets a d-dimensional vector, one row of the model's matrix.
Term nodes with a known embedding are clamped to it; all remaining nodes
are free and relax to the weighted average of their neighbors, which
minimizes the edge-weighted sum of squared differences. Two independent
routes find that minimum, both on the network's array view:

* solve(): in-place Gauss-Seidel sweeps until the largest per-node move
  drops below the tolerance. A sweep updates one kind at a time, each as
  one sparse product: edges only join B-T, B-S and S-M, so nodes of one
  kind never read each other and the whole-kind update is exactly the
  node-by-node one;
* closed_form_solve(): one sparse LU solve of the harmonic system, with
  no cap on the number of free nodes; the tests' oracle.

Free nodes in a component with no clamped node have no information source;
both routes leave them at zero and report a diagnostic, read from the
view's single connected-component labelling.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .embeddings import EmbeddingTable
from .errors import ParseError, ValidationError
from .network import HeteroNetwork, NetworkView, TypedNode, kind_slice

logger = logging.getLogger(__name__)

# order in which free nodes are visited within one sweep
_SWEEP_KINDS = ("T", "B", "S", "M", "S", "B")


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 100
    tolerance: float = 1e-6
    track_energy: bool = False


@dataclass(frozen=True)
class ConvergenceReport:
    iterations: int
    converged: bool
    final_displacement: float
    final_energy: float
    energies: tuple[float, ...] = ()
    isolated_components: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "final_displacement": self.final_displacement,
            "final_energy": self.final_energy,
            "isolated_components": list(self.isolated_components),
        }


@dataclass
class RepresentationModel:
    """One vector per network node, as rows of a matrix, plus the clamped term nodes.

    `nodes` is sorted, so each kind's rows are contiguous.
    """

    nodes: tuple[TypedNode, ...]
    matrix: np.ndarray  # len(nodes) x dim
    clamped: frozenset[TypedNode]
    convergence: ConvergenceReport | None = None
    diagnostics: list[str] = field(default_factory=list)

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValidationError("model nodes must be sorted and distinct")
        self._row = {node: i for i, node in enumerate(self.nodes)}
        self._clamped_rows = np.array([node in self.clamped for node in self.nodes], dtype=bool)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def vector(self, node: TypedNode) -> np.ndarray:
        return self.matrix[self._row[node]]


def initialize_representation(net: HeteroNetwork, table: EmbeddingTable) -> RepresentationModel:
    """Clamp T nodes found in the table to their embedding; zero everything else.

    A T node missing from the table stays free, like B, S, and M nodes.
    """
    nodes = net.view().nodes
    clamped = frozenset(node for node in nodes[kind_slice(nodes, "T")] if node.key in table)
    model = RepresentationModel(nodes, np.zeros((len(nodes), table.dim)), clamped)
    for node in clamped:
        model.vector(node)[:] = table.vectors[node.key]
    return model


def _aligned_view(model: RepresentationModel, net: HeteroNetwork) -> NetworkView:
    view = net.view()
    if model.nodes is not view.nodes and model.nodes != view.nodes:
        raise ValidationError("the model's nodes differ from the network's")
    return view


def sweep_update(model: RepresentationModel, net: HeteroNetwork) -> float:
    """Run one Gauss-Seidel sweep in place; return the largest L2 node move.

    Each free node is set to the weighted average of its neighbors, using
    values already updated within the sweep. The kinds are visited in the
    order of _SWEEP_KINDS, all free nodes of a kind at once: no edge joins
    two nodes of one kind, so none of them reads another's new value and
    the block update equals visiting them one by one. Free nodes without
    neighbors are left untouched. Clamped nodes never move.
    """
    view = _aligned_view(model, net)
    movable = ~model._clamped_rows & (view.degree > 0)
    max_disp = 0.0
    for kind in _SWEEP_KINDS:
        block = kind_slice(view.nodes, kind)
        rows = movable[block]
        if not rows.any():
            continue
        update = (view.kind_rows[kind] @ model.matrix)[rows] / view.degree[block][rows, None]
        current = model.matrix[block]
        max_disp = max(max_disp, float(np.linalg.norm(update - current[rows], axis=1).max()))
        current[rows] = update
    return max_disp


def energy(model: RepresentationModel, net: HeteroNetwork) -> float:
    """Edge-weighted sum of squared vector differences, each edge counted once.

    Computed as the Laplacian quadratic form sum_i deg_i |x_i|^2 - tr(X' A X),
    which needs node-sized temporaries only, not one row per edge.
    """
    view = _aligned_view(model, net)
    x = model.matrix
    return float(view.degree @ np.einsum("ij,ij->i", x, x) - np.vdot(x, view.adjacency @ x))


def _isolate(model: RepresentationModel, view: NetworkView) -> np.ndarray:
    """Set and log one diagnostic per component with no clamped node;
    return the rows of those components."""
    isolated, components = view.components_without(model._clamped_rows)
    model.diagnostics = [
        f"component of {size} free nodes (e.g. {sample.kind}:{sample.key}) "
        f"has no clamped node; vectors stay zero"
        for size, sample in components
    ]
    for msg in model.diagnostics:
        logger.warning("%s", msg)
    return isolated


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
    if config.max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    if config.tolerance <= 0.0:
        raise ValidationError("tolerance must be positive")
    model = initial if initial is not None else initialize_representation(net, table)
    _isolate(model, _aligned_view(model, net))
    energies: list[float] = []
    displacement = float("inf")
    iterations = 0
    converged = False
    for iterations in range(1, config.max_iters + 1):
        displacement = sweep_update(model, net)
        if config.track_energy:
            energies.append(energy(model, net))
        if displacement < config.tolerance:
            converged = True
            break
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
        energies=tuple(energies),
        isolated_components=tuple(model.diagnostics),
    )
    return model


def closed_form_solve(net: HeteroNetwork, table: EmbeddingTable) -> RepresentationModel:
    """Solve the harmonic system directly: every free node equals the
    weighted average of its neighbors, with clamped values substituted.

    One sparse LU factorization of the free-node Laplacian block serves all
    d dimensions. Free components with no clamped node are left at zero
    with a diagnostic; every other free node is connected to a clamped one,
    so the block is nonsingular.
    """
    model = initialize_representation(net, table)
    view = net.view()
    isolated = _isolate(model, view)
    free = np.flatnonzero(~model._clamped_rows & ~isolated)
    if not free.size:
        return model
    clamped = np.flatnonzero(model._clamped_rows)
    to_free = view.adjacency[free]
    laplacian = sparse.diags_array(view.degree[free]) - to_free[:, free]
    rhs = to_free[:, clamped] @ model.matrix[clamped]
    model.matrix[free] = splu(sparse.csc_array(laplacian)).solve(rhs)
    return model


def clamped_digest(model: RepresentationModel) -> str:
    """Stable hash of the clamped set and its vectors."""
    h = hashlib.sha256()
    for node in sorted(model.clamped):
        vec = model.vector(node)
        h.update(node.kind.encode())
        h.update(node.key.encode())
        h.update(b"\x00")
        h.update(" ".join(repr(float(x)) for x in vec).encode())
        h.update(b"\n")
    return h.hexdigest()


def dump_model(model: RepresentationModel, path) -> None:
    """Write the model as a text table: header JSON line, then one node per line.

    Floats are written with repr so loading restores them bit-exactly.
    """
    for node in model.nodes:
        if "\t" in node.key or "\n" in node.key:
            raise ValidationError(f"node key {node.key!r} cannot be serialized")
    header = {
        "dim": model.dim,
        "nodes": len(model.nodes),
        "clamped_digest": clamped_digest(model),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for node, clamped, vec in zip(model.nodes, model._clamped_rows, model.matrix):
            flag = "c" if clamped else "f"
            values = " ".join(repr(float(x)) for x in vec)
            fh.write(f"{node.kind}\t{node.key}\t{flag}\t{values}\n")


def load_model(path) -> RepresentationModel:
    """Read a model written by dump_model, verifying the clamped-set digest.

    Rows are ordered by node, whatever their order in the file.
    """
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
            dim = int(header["dim"])
            declared_nodes = int(header["nodes"])
            declared_digest = header["clamped_digest"]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: bad model header") from exc
        vectors: dict[TypedNode, np.ndarray] = {}
        clamped = set()
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise ParseError(f"{path}: line {lineno}: expected 4 tab-separated fields")
            kind, key, flag, raw = parts
            node = TypedNode(kind, key)
            if node in vectors:
                raise ValidationError(f"{path}: line {lineno}: duplicate node {node}")
            try:
                vec = np.array([float(x) for x in raw.split()], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: bad vector") from exc
            if vec.shape != (dim,):
                raise ParseError(
                    f"{path}: line {lineno}: vector has {vec.shape[0]} components, expected {dim}"
                )
            vectors[node] = vec
            if flag == "c":
                clamped.add(node)
            elif flag != "f":
                raise ParseError(f"{path}: line {lineno}: bad clamp flag {flag!r}")
    if len(vectors) != declared_nodes:
        raise ValidationError(
            f"{path}: header declares {declared_nodes} nodes but file holds {len(vectors)}"
        )
    nodes = tuple(sorted(vectors))
    matrix = np.array([vectors[node] for node in nodes], dtype=np.float64).reshape(len(nodes), dim)
    model = RepresentationModel(nodes=nodes, matrix=matrix, clamped=frozenset(clamped))
    digest = clamped_digest(model)
    if digest != declared_digest:
        raise ValidationError(f"{path}: clamped-set digest mismatch")
    return model
