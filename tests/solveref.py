"""Direct solve of the harmonic system, kept apart from the sweeps in
bugloc.regularizer so that tests can compare the two routes.

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

from bugloc.regularizer import _isolate, initialize_representation
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
