"""Lattice operators, sparsity patterns, and local problem extraction.

The model operator is the five-point stencil on a 2D grid: diagonal value
lambda - 4 and unit couplings to the four axis neighbors, truncated at the
grid edges.  Decoupling a node is a local operation, so local problems are
built intrinsically: the nodes within m hops of the decoupled node, an
interior/boundary split, and the target sparsity pattern the transformation
must preserve.  Supernode variants merge p x q rectangles of nodes and treat
sparsity at supernode granularity.
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
        pos = self.positions()
        rows = np.array([i for i, _ in pos], dtype=np.intp)
        cols = np.array([j for _, j in pos], dtype=np.intp)
        rows.flags.writeable = False
        cols.flags.writeable = False
        return rows, cols

    def mask(self):
        """Dense boolean admissibility mask, symmetric."""
        out = np.zeros((self.dim, self.dim), dtype=bool)
        for i, j in self.entries:
            out[i, j] = True
            out[j, i] = True
        return out

    @property
    def n_entries(self):
        return len(self.entries)


@dataclass(frozen=True)
class SupernodeLayout:
    """Partition of a local region's nodes into p x q supernodes.

    node_ids maps supernode id -> tuple of member node indices; adjacency
    holds unordered supernode id pairs whose members share a stencil coupling.
    """

    p: int
    q: int
    supernode_coords: tuple
    node_ids: tuple
    supernode_of_node: dict
    adjacency: frozenset

    @property
    def n_supernodes(self):
        return len(self.supernode_coords)


@dataclass(frozen=True)
class LocalProblem:
    """Everything needed to decouple one node while preserving sparsity.

    a_ll is the dense local operator in the region node order (interior nodes
    first, then boundary).  target_pattern is the admissible sparsity of the
    coarsened operator: the region pattern with the decoupled node's
    off-diagonal entries removed.  coords are integer node coordinates
    relative to the decoupled node.
    """

    a_ll: np.ndarray
    interior: tuple
    boundary: tuple
    decoupled: int
    target_pattern: SparsityPattern
    coords: np.ndarray
    lam: float
    supernode_dims: tuple

    @property
    def n_local(self):
        return self.a_ll.shape[0]

    @property
    def n_interior(self):
        return len(self.interior)

    @property
    def n_boundary(self):
        return len(self.boundary)


def build_helmholtz(spec):
    """Assemble the stencil matrix for a width x height grid, row-major order.

    Couplings to off-grid neighbors are simply dropped (Dirichlet truncation);
    the diagonal stays lam - 4 everywhere.
    """
    import scipy.sparse as sp  # deferred: the only user; sweeps never need it

    w, h = spec.width, spec.height
    n = w * h
    rows, cols, vals = [], [], []
    for y in range(h):
        for x in range(w):
            k = y * w + x
            rows.append(k)
            cols.append(k)
            vals.append(spec.lam - 4.0)
            if x + 1 < w:
                rows += [k, k + 1]
                cols += [k + 1, k]
                vals += [1.0, 1.0]
            if y + 1 < h:
                rows += [k, k + w]
                cols += [k + w, k]
                vals += [1.0, 1.0]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


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


def _assemble_local(interior_coords, boundary_coords, fill_pairs, lam, dims):
    """Common final assembly: ordering, dense operator, decoupled pattern."""
    order = sorted(interior_coords, key=_sort_key) + sorted(boundary_coords, key=_sort_key)
    index = {coord: k for k, coord in enumerate(order)}
    n = len(order)
    coords = np.array(order, dtype=int)

    a_ll = np.zeros((n, n))
    np.fill_diagonal(a_ll, lam - 4.0)
    for (x, y) in order:
        for (nx, ny) in ((x + 1, y), (x, y + 1)):
            if (nx, ny) in index:
                a_ll[index[(x, y)], index[(nx, ny)]] = 1.0
                a_ll[index[(nx, ny)], index[(x, y)]] = 1.0

    pairs = [(k, k) for k in range(n)]
    pairs += [(index[u], index[v]) for u, v in fill_pairs]
    base = SparsityPattern.from_pairs(n, pairs)
    c = index[(0, 0)]
    return LocalProblem(
        a_ll=a_ll,
        interior=tuple(range(len(interior_coords))),
        boundary=tuple(range(len(interior_coords), n)),
        decoupled=c,
        target_pattern=decoupled_pattern(base, c),
        coords=coords,
        lam=lam,
        supernode_dims=dims,
    )


def extract_local_scalar(m, lam):
    """Local problem around one node: the m-hop diamond, interior = < m hops.

    The decoupled node sits at the origin and is index 0 in the region order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    interior = _diamond(m - 1)
    boundary = [pt for pt in _diamond(m) if abs(pt[0]) + abs(pt[1]) == m]
    region = set(interior) | set(boundary)
    fill = [
        ((x, y), (nx, ny))
        for (x, y) in region
        for (nx, ny) in ((x + 1, y), (x, y + 1))
        if (nx, ny) in region
    ]
    return _assemble_local(interior, boundary, fill, lam, (1, 1))


def _supernode_region(m, p, q):
    """The m-hop supernode diamond: supernode coords, members, node split.

    Returns (supernode coords, {coord: member nodes}, interior nodes,
    boundary nodes, adjacency as unordered supernode id pairs).
    """
    if m < 1 or p < 1 or q < 1:
        raise ValueError("m, p, q must all be >= 1")
    scoords = _diamond(m)
    members = {
        (sx, sy): [(sx * p + a, sy * q + b) for b in range(q) for a in range(p)]
        for (sx, sy) in scoords
    }
    interior = [c for s in _diamond(m - 1) for c in members[s]]
    boundary = [c for s in scoords if abs(s[0]) + abs(s[1]) == m for c in members[s]]
    sid_of = {s: k for k, s in enumerate(scoords)}
    adjacency = set()
    for (sx, sy) in scoords:
        for nb in ((sx + 1, sy), (sx, sy + 1)):
            if nb in sid_of:
                a, b = sid_of[(sx, sy)], sid_of[nb]
                adjacency.add((min(a, b), max(a, b)))
    return scoords, members, interior, boundary, frozenset(adjacency)


def supernode_layout(m, p, q):
    """Supernode partition of the m-hop supernode diamond.

    Supernode (X, Y) covers nodes [X*p, X*p + p) x [Y*q, Y*q + q).  Node ids
    refer to the region order used by extract_local_supernode.  Adjacency is
    over supernode ids; for the five-point stencil it is exactly the 2D grid
    adjacency of supernode coordinates.
    """
    scoords, members, interior, boundary, adjacency = _supernode_region(m, p, q)
    order = sorted(interior, key=_sort_key) + sorted(boundary, key=_sort_key)
    index = {coord: k for k, coord in enumerate(order)}

    node_ids = tuple(tuple(index[c] for c in members[s]) for s in scoords)
    owner = {}
    for sid, ids in enumerate(node_ids):
        for node in ids:
            owner[node] = sid
    return SupernodeLayout(
        p=p,
        q=q,
        supernode_coords=tuple(scoords),
        node_ids=node_ids,
        supernode_of_node=owner,
        adjacency=adjacency,
    )


def extract_local_supernode(m, p, q, lam):
    """Local problem with p x q supernodes: region = supernodes within m hops.

    The admissible pattern treats sparsity at supernode granularity: every
    intra-supernode pair plus every pair between adjacent supernodes, so
    member nodes share all their connections.  Positions not backed by a raw
    stencil coupling simply start at zero.  The decoupled node is the
    lowest-indexed member of the central supernode (its origin corner).
    """
    scoords, members, interior, boundary, adjacency = _supernode_region(m, p, q)
    fill = []
    for nodes in members.values():
        fill += [(u, v) for a, u in enumerate(nodes) for v in nodes[a + 1:]]
    for a, b in adjacency:
        fill += [(u, v) for u in members[scoords[a]] for v in members[scoords[b]]]
    return _assemble_local(interior, boundary, fill, lam, (p, q))
