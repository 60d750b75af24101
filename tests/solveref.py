"""Direct solve of the harmonic system, kept apart from the conjugate
gradients of bugloc.regularizer so that tests can compare the two routes,
and block_sweep, the Gauss-Seidel sweep as it ran through scipy's products
before sweep_plan. The planned sweep multiplies through corpus.RowProduct
with numpy alone and must match it bit for bit.

Every free node equals the weighted average of its neighbors, with the
clamped values substituted: one sparse LU factorization of the free-node
Laplacian block serves all d dimensions. Free components with no clamped
node are left at zero and logged, through the solver's own rule; every
other free node is connected to a clamped one, so the block is
nonsingular.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from bugloc.network import KINDS
from bugloc.regularizer import _SWEEP_KINDS, _check_aligned, _isolate, initialize_representation
from sparseref import to_scipy


def closed_form_solve(net, table):
    """The model whose free rows solve the harmonic system exactly."""
    model = initialize_representation(net, table)
    isolated, _ = _isolate(model, net)
    free = np.flatnonzero(~model.clamped_rows & ~isolated)
    if not free.size:
        return model
    clamped = np.flatnonzero(model.clamped_rows)
    to_free = to_scipy(net.adjacency)[free]
    laplacian = sparse.diags_array(net.degree[free]) - to_free[:, free]
    rhs = to_free[:, clamped] @ model.matrix[clamped]
    model.matrix[free] = splu(sparse.csc_array(laplacian)).solve(rhs)
    return model


def block_sweep(model, net) -> float:
    """One sweep in place, as bugloc.regularizer.sweep_update ran it before
    the solve planned its sweeps: the movable mask, the per-kind wraps over
    the CSR's arrays and the whole-kind product subset by row, every sweep."""
    _check_aligned(model, net)
    movable = ~model.clamped_rows & (net.degree > 0)
    adj, rows_of, max_disp = net.adjacency, {}, 0.0
    for kind in KINDS:
        # each kind's rows over adj's arrays, set in place, as
        # csr_array((data, indices, indptr)) copies a slice under half its array
        block = net.nodes.rows(kind)
        start, stop = adj.indptr[block.start], adj.indptr[block.stop]
        rows_of[kind] = wrap = sparse.csr_array((block.stop - block.start, len(net.nodes)))
        wrap.data, wrap.indices = adj.data[start:stop], adj.indices[start:stop]
        wrap.indptr = adj.indptr[block.start : block.stop + 1] - start
    for kind in _SWEEP_KINDS:
        block = net.nodes.rows(kind)
        rows = movable[block]
        if not rows.any():
            continue
        update = (rows_of[kind] @ model.matrix)[rows] / net.degree[block][rows, None]
        current = model.matrix[block]
        max_disp = max(max_disp, float(np.linalg.norm(update - current[rows], axis=1).max()))
        current[rows] = update
    return max_disp
