"""Lattice operators, sparsity patterns, and local problem extraction.

The model operator is the five-point stencil: diagonal value lambda - 4 and
unit couplings to the four axis neighbors, truncated where a neighbor is
missing.  One constructor builds it as a dense numpy array on any set of
integer nodes: the local region of a problem, or the explicit row-major grid
(build_helmholtz) that is only needed to check an embedding.  Decoupling a
node is a local operation, so local problems are built intrinsically.
supernode_layout is the one place that derives a region: the p x q
supernodes within m hops of the decoupled node's supernode (a scalar region
is the 1 x 1 case), their interior/boundary split, the region's node order
and the supernode adjacency.  extract_local_supernode builds the local
operator and the target sparsity pattern the transformation must preserve
from that layout, treating sparsity at supernode granularity.  A
SparsityPattern owns the free-value map: its free values, one per
positions() entry, are the unknowns of A~ and dA, and embed and
multiplicity say how they fill the symmetric matrix.
"""

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
    order; adjacency holds unordered supernode id pairs whose members share a
    stencil coupling.
    """

    supernode_coords: tuple
    node_ids: tuple
    adjacency: frozenset
    order: tuple
    n_interior: int


@dataclass(frozen=True)
class LocalProblem:
    """Everything needed to decouple one node while preserving sparsity.

    a_ll is the dense local operator in the region node order, the
    n_interior interior nodes first, then boundary.  target_pattern is the
    admissible sparsity of the coarsened operator: the region pattern with
    the decoupled node's off-diagonal entries removed.  coords are integer
    node coordinates relative to the decoupled node.  gauge_dim counts the
    gauge directions dA = D^T A~ + A~ D, D block-diagonal over the interior
    supernodes: b^2 N - 2(b - 1) for N of them with b nodes each.
    """

    a_ll: np.ndarray
    n_interior: int
    gauge_dim: int
    decoupled: int
    target_pattern: SparsityPattern
    coords: np.ndarray
    lam: float

    @property
    def n_local(self):
        return self.a_ll.shape[0]


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
    Adjacency is over supernode ids; for the five-point stencil it is exactly
    the 2D grid adjacency of supernode coordinates.
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
    sid_of = {s: k for k, s in enumerate(scoords)}
    adjacency = set()
    for (sx, sy) in scoords:
        for nb in ((sx + 1, sy), (sx, sy + 1)):
            if nb in sid_of:
                a, b = sid_of[(sx, sy)], sid_of[nb]
                adjacency.add((min(a, b), max(a, b)))
    return SupernodeLayout(
        supernode_coords=tuple(scoords),
        node_ids=tuple(tuple(index[c] for c in members[s]) for s in scoords),
        adjacency=frozenset(adjacency),
        order=tuple(order),
        n_interior=len(interior),
    )


def extract_local_supernode(m, p, q, lam):
    """Local problem with p x q supernodes: region = supernodes within m hops.

    The admissible pattern treats sparsity at supernode granularity: every
    intra-supernode pair plus every pair between adjacent supernodes, so
    member nodes share all their connections.  Positions not backed by a raw
    stencil coupling simply start at zero.  The decoupled node is the origin
    corner (0, 0) of the central supernode.
    """
    layout = supernode_layout(m, p, q)
    n = len(layout.order)
    pairs = [(k, k) for k in range(n)]
    for ids in layout.node_ids:
        pairs += [(u, v) for a, u in enumerate(ids) for v in ids[a + 1:]]
    for a, b in layout.adjacency:
        pairs += [(u, v) for u in layout.node_ids[a] for v in layout.node_ids[b]]
    base = SparsityPattern.from_pairs(n, pairs)
    # (0, 0) is the first member of the central supernode, which is id 0.
    c = layout.node_ids[0][0]
    return LocalProblem(
        a_ll=_stencil(layout.order, lam),
        n_interior=layout.n_interior,
        gauge_dim=p * q * layout.n_interior - 2 * (p * q - 1),
        decoupled=c,
        target_pattern=decoupled_pattern(base, c),
        coords=np.array(layout.order, dtype=int),
        lam=lam,
    )


def extract_local_scalar(m, lam):
    """Local problem around one node: the m-hop diamond, interior = < m hops.

    The 1 x 1 supernode problem.  The decoupled node sits at the origin and
    is index 0 in the region order.
    """
    return extract_local_supernode(m, 1, 1, lam)
