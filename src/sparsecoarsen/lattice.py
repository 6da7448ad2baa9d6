"""Lattice operators, sparsity patterns, and local problem extraction.

The model operator is the five-point stencil: diagonal value lambda - 4 and
unit couplings to the four axis neighbors, truncated where a neighbor is
missing.  One constructor builds it as a dense numpy array on any set of
integer nodes: the local region of a problem, or the explicit row-major grid
(build_helmholtz) that is only needed to check an embedding.  Decoupling a
node is a local operation, so local problems are built intrinsically.
supernode_layout is the one place that derives a region: the p x q
supernodes within m hops of the decoupled node's supernode (a scalar region
is the 1 x 1 case), their interior/boundary split and the region's node
order.  extract_local_supernode builds the local operator and the target
sparsity pattern the transformation must preserve from that layout, by one
rule on supernode coordinates (stated there).  A
SparsityPattern owns the free-value map: its free values, one per
positions() entry, are the unknowns of A~ and dA, and embed and
multiplicity say how they fill the symmetric matrix.  gauge_basis states
the gauge directions of dA in those coordinates.
"""

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class StencilSpec:
    """Five-point stencil on a width x height grid with diagonal lam - 4."""

    lam: float
    width: int = 1
    height: int = 1

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be >= 1")


@dataclass(frozen=True)
class SparsityPattern:
    """Symmetric sparsity pattern: unordered index pairs plus diagonal entries.

    Entries are stored canonically as (i, j) with i <= j; membership queries
    accept either order.
    """

    dim: int
    entries: frozenset

    @classmethod
    def from_pairs(cls, dim, pairs):
        canonical = set()
        for i, j in pairs:
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"pattern index ({i}, {j}) out of range for dim {dim}")
            canonical.add((min(i, j), max(i, j)))
        return cls(dim=dim, entries=frozenset(canonical))

    def __contains__(self, pair):
        i, j = pair
        return (min(i, j), max(i, j)) in self.entries

    def positions(self):
        """Canonical (i, j) pairs with i <= j, sorted. One entry per free value."""
        return sorted(self.entries)

    @cached_property
    def index_arrays(self):
        """Read-only (rows, cols) arrays of positions(), built once per pattern."""
        index = np.array(self.positions(), dtype=np.intp).reshape(-1, 2).T.copy()
        index.flags.writeable = False
        return index[0], index[1]

    def embed(self, values):
        """Symmetric array of values' dtype: values at positions() and mirrored, 0 elsewhere."""
        rows, cols = self.index_arrays
        out = np.zeros((self.dim, self.dim), dtype=values.dtype)
        out[rows, cols] = values
        out[cols, rows] = values
        return out

    @cached_property
    def multiplicity(self):
        """Read-only count of the entries each free value fills: 1.0 on the diagonal, 2.0 off it.

        So <embed(v), M> = sum(multiplicity * M[index_arrays] * v) for symmetric M.
        """
        rows, cols = self.index_arrays
        out = np.where(rows == cols, 1.0, 2.0)
        out.flags.writeable = False
        return out

    def mask(self):
        """Dense boolean admissibility mask, symmetric: embed of ones."""
        return self.embed(np.ones(self.n_entries, dtype=bool))

    @property
    def n_entries(self):
        return len(self.entries)


@dataclass(frozen=True)
class SupernodeLayout:
    """The m-hop supernode diamond of a local region, built by supernode_layout.

    order lists the region's node coordinates, the n_interior interior nodes
    first; node_ids maps supernode id -> tuple of member node indices in that
    order, the central supernode first.
    """

    node_ids: tuple
    order: tuple
    n_interior: int


@dataclass(frozen=True)
class LocalProblem:
    """Everything needed to decouple one node while preserving sparsity.

    a_ll is the dense local operator in the region node order, the
    n_interior interior nodes first, then boundary.  target_pattern is the
    admissible sparsity of the coarsened operator: the region pattern with
    the decoupled node's off-diagonal entries removed.  coords are integer
    node coordinates relative to the decoupled node.  node_ids is the
    layout's supernode membership (SupernodeLayout.node_ids).  gauge_dim
    counts the gauge directions dA = D^T A~ + A~ D, D block-diagonal over
    the interior supernodes: b^2 N - 2(b - 1) for N of them with b nodes
    each (gauge_basis).
    """

    a_ll: np.ndarray
    n_interior: int
    gauge_dim: int
    decoupled: int
    target_pattern: SparsityPattern
    coords: np.ndarray
    lam: float
    node_ids: tuple

    @property
    def n_local(self):
        return self.a_ll.shape[0]

    @cached_property
    def gauge_support(self):
        """Where gauge_basis's triplets sit, and the A~ entry each one reads.

        Read-only arrays (rows, cols, a_rows, a_cols, weights), built once
        per problem: triplet t has the value weights[t] * A~[a_rows[t],
        a_cols[t]].  They are sorted by row, then column.
        """
        c = self.decoupled
        directions = [(u, v) for ids in self.node_ids if max(ids) < self.n_interior
                      for u in ids for v in ids if u == v or c not in (u, v)]
        pattern = self.target_pattern
        touching = defaultdict(list)  # node -> its row's and column's free values
        for k, (i, j) in enumerate(pattern.positions()):
            touching[i].append((k, i, j))
            if j != i:
                touching[j].append((k, i, j))
        entries = []
        for g, (u, v) in enumerate(directions):
            for k, i, j in touching[v]:
                # [i = v] A~_uj + [j = v] A~_iu
                if i == j:
                    source = (u, v, 2.0)  # both terms
                elif i == v:
                    source = (u, j, 1.0)
                else:
                    source = (i, u, 1.0)
                if source[:2] in pattern:  # A~ is zero elsewhere
                    entries.append((k, g, *source))
        table = np.array(sorted(entries), dtype=float).reshape(-1, 5).T
        support = (*table[:4].astype(np.intp), table[4].copy())
        for a in support:
            a.flags.writeable = False
        return support


def _stencil(coords, lam):
    """Dense five-point operator on the given integer nodes, in their order.

    lam - 4 on the diagonal and 1.0 between axis neighbors; a neighbor
    outside the node set is dropped.  Float64 and C-ordered: a Fortran-ordered
    copy rounds products such as x.T @ a @ x differently.
    """
    index = {c: k for k, c in enumerate(coords)}
    a = np.zeros((len(index), len(index)))
    np.fill_diagonal(a, lam - 4.0)
    for (x, y), k in index.items():
        for nb in ((x + 1, y), (x, y + 1)):
            j = index.get(nb)
            if j is not None:
                a[k, j] = a[j, k] = 1.0
    return a


def build_helmholtz(spec):
    """Dense stencil matrix of a width x height grid, nodes in row-major order.

    Couplings to off-grid neighbors are simply dropped (Dirichlet truncation);
    the diagonal stays lam - 4 everywhere.
    """
    return _stencil([(x, y) for y in range(spec.height) for x in range(spec.width)],
                    spec.lam)


def checkerboard_diagonal(width, height):
    """Signs (-1)^(x+y) in row-major order, as a vector of +-1.

    Conjugating the stencil by this diagonal and negating maps lam to 8 - lam:
    -D A(lam) D = A(8 - lam).
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    x = np.arange(width)
    y = np.arange(height)
    return np.where(((x[None, :] + y[:, None]) % 2) == 0, 1.0, -1.0).ravel()


def _sort_key(coord):
    dx, dy = coord
    return (abs(dx) + abs(dy), dy, dx)


def _diamond(radius):
    """Integer points with |dx| + |dy| <= radius, in canonical order."""
    pts = [
        (dx, dy)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
        if abs(dx) + abs(dy) <= radius
    ]
    return sorted(pts, key=_sort_key)


def decoupled_pattern(base, c):
    """Remove the off-diagonal entries of row/column c, keeping (c, c)."""
    if not (0 <= c < base.dim):
        raise ValueError(f"decoupled index {c} out of range for dim {base.dim}")
    if (c, c) not in base:
        raise ValueError("base pattern must contain the decoupled diagonal entry")
    kept = {(i, j) for (i, j) in base.entries if i == j or (i != c and j != c)}
    return SparsityPattern(dim=base.dim, entries=frozenset(kept))


def supernode_layout(m, p, q):
    """The m-hop supernode diamond and its partition into p x q supernodes.

    Supernode (X, Y) covers nodes [X*p, X*p + p) x [Y*q, Y*q + q).  The
    supernodes within m - 1 hops are interior; those at exactly m hops form
    the boundary.  The region order lists the interior nodes sorted by hop
    count, then the boundary nodes likewise, and node ids index that order.
    """
    if m < 1 or p < 1 or q < 1:
        raise ValueError("m, p, q must all be >= 1")
    scoords = _diamond(m)
    members = {
        (sx, sy): [(sx * p + a, sy * q + b) for b in range(q) for a in range(p)]
        for (sx, sy) in scoords
    }
    interior = [c for s in scoords if abs(s[0]) + abs(s[1]) < m for c in members[s]]
    boundary = [c for s in scoords if abs(s[0]) + abs(s[1]) == m for c in members[s]]
    order = sorted(interior, key=_sort_key) + sorted(boundary, key=_sort_key)
    index = {coord: k for k, coord in enumerate(order)}
    return SupernodeLayout(
        node_ids=tuple(tuple(index[c] for c in members[s]) for s in scoords),
        order=tuple(order),
        n_interior=len(interior),
    )


def extract_local_supernode(m, p, q, lam):
    """Local problem with p x q supernodes: region = supernodes within m hops.

    The admissible pattern treats sparsity at supernode granularity: nodes
    u and v may couple when their supernodes X = coords // (p, q) satisfy
    |X_u - X_v|_1 <= 1, so member nodes share all their connections; for
    p = q = 1 this is the five-point stencil.  Positions not backed by a raw
    stencil coupling simply start at zero.  The decoupled node is the origin
    corner (0, 0) of the central supernode.
    """
    layout = supernode_layout(m, p, q)
    coords = np.array(layout.order, dtype=int)
    bx, by = (coords // (p, q)).T
    near = np.abs(np.subtract.outer(bx, bx)) + np.abs(np.subtract.outer(by, by)) <= 1
    # Each pair once, as (i, j) with i <= j: the canonical form.
    i, j = np.nonzero(np.triu(near))
    base = SparsityPattern(dim=len(coords),
                           entries=frozenset(zip(i.tolist(), j.tolist())))
    # (0, 0) is the first member of the central supernode, which is id 0.
    c = layout.node_ids[0][0]
    return LocalProblem(
        a_ll=_stencil(layout.order, lam),
        n_interior=layout.n_interior,
        gauge_dim=p * q * layout.n_interior - 2 * (p * q - 1),
        decoupled=c,
        target_pattern=decoupled_pattern(base, c),
        coords=coords,
        lam=lam,
        node_ids=layout.node_ids,
    )


def gauge_basis(problem, a_tilde):
    """The gauge directions dA = D^T A~ + A~ D at a_tilde, as (row, column, value) triplets.

    There is one column per D = e_u e_v^T with u and v members of one
    interior supernode, less the 2(b - 1) ordered pairs that join the
    decoupled node to another member (those would couple it off the
    diagonal): problem.gauge_dim columns.  Rows are the target pattern's
    free values.  Direction (u, v) has [i = v] A~_uj + [j = v] A~_iu at free
    value (i, j), so only the free values in row or column v hold entries.
    A row and column may repeat in no two triplets; they are sorted by row,
    and only their values depend on a_tilde (LocalProblem.gauge_support).
    """
    rows, cols, a_rows, a_cols, weights = problem.gauge_support
    return rows, cols, weights * a_tilde[a_rows, a_cols]


def extract_local_scalar(m, lam):
    """Local problem around one node: the m-hop diamond, interior = < m hops.

    The 1 x 1 supernode problem.  The decoupled node sits at the origin and
    is index 0 in the region order.
    """
    return extract_local_supernode(m, 1, 1, lam)
