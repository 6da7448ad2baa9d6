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
the gauge directions of dA in those coordinates.  orbit_blocks splits
items that the reflections about the decoupled node permute into the
character blocks of that group: reflection_blocks applies it to the free
values, and LocalProblem.node_blocks (NodeBlocks) to the region's nodes.
Node blocks exist only where the split and the line search read them: in
scalar regions of BLOCKS_MIN_NODES nodes or more.  Elsewhere node_blocks is None.
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

    @cached_property
    def node_reflections(self):
        """The node permutations of the reflection group K, or None.

        K is {e, Fx, Fy, R180}: x -> -x, y -> -y and both, about the
        decoupled node at the origin of coords.  Row g of the read-only
        (4, n_local) array, in REFLECTIONS' order, maps node k to the node
        at g coords[k].  Built once per problem, and None unless Fx and Fy,
        and so R180, map the region's nodes, its interior and A_LL onto
        themselves.
        """
        coords = self.coords
        n = self.n_local
        reach = int(np.abs(coords).max(initial=0))

        def keys(c):  # distinct integers for the points within reach
            return (c[:, 0] + reach) * (2 * reach + 1) + c[:, 1] + reach

        order = np.argsort(keys(coords))
        node_keys = keys(coords)[order]
        perms = [np.arange(n)]
        for flip in REFLECTIONS[1:3]:
            image_keys = keys(coords * flip)
            at = np.searchsorted(node_keys, image_keys).clip(max=n - 1)
            perm = order[at]
            if not (np.array_equal(node_keys[at], image_keys)
                    and np.all(perm[: self.n_interior] < self.n_interior)
                    and np.array_equal(self.a_ll[np.ix_(perm, perm)], self.a_ll)):
                return None
            perms.append(perm)
        perms.append(perms[1][perms[2]])  # R180 = Fx Fy
        perms = np.array(perms)
        perms.flags.writeable = False
        return perms

    @cached_property
    def reflection_images(self):
        """The free-value permutations of the reflection group K, or None.

        Row g of the read-only (4, n_pattern) array, in REFLECTIONS' order,
        maps free value (i, j) to the free value at (g i, g j).  Built once
        per problem, and None unless K maps the nodes (node_reflections) and
        the target pattern onto themselves: so for scalar regions alone,
        since a p x q supernode with p or q above 1 has the decoupled node
        at a corner.
        """
        perms = self.node_reflections
        if perms is None:
            return None
        n = self.n_local
        rows, cols = self.target_pattern.index_arrays
        pattern_keys = rows * n + cols  # ascending, as positions() is sorted
        images = []
        for perm in perms:
            i, j = perm[rows], perm[cols]
            image_keys = np.minimum(i, j) * n + np.maximum(i, j)
            at = np.searchsorted(pattern_keys, image_keys).clip(max=max(len(rows) - 1, 0))
            if not np.array_equal(pattern_keys[at], image_keys):
                return None
            images.append(at)
        images = np.array(images)
        images.flags.writeable = False
        return images

    @cached_property
    def reflection_invariant(self):
        """The check invariant(matrices): whether K maps each matrix onto itself.

        Built once per problem; false for every matrix where K does not map
        the region onto itself (node_reflections).  A matrix is n_local x
        n_local, or the interior rows of one, as dY is.  M[g k, g k'] =
        M[k, k'] where M commutes with Fx and Fy, which is probed on one
        fixed vector v_k = sin(k + 1) without symmetry or zero entries: M F v
        against F M v, to INVARIANCE_TOL of the largest entry of the
        products.  A commutator passes only if v lies in its null space.
        """
        perms = self.node_reflections
        if perms is None:
            return lambda matrices: False
        v = np.sin(np.arange(1.0, self.n_local + 1))
        probe = np.column_stack((v, v[perms[1]], v[perms[2]]))

        def invariant(matrices, probe=probe, perms=perms):  # defaults: less memory than cells
            spread = size = 0.0
            for matrix in matrices:
                w = matrix @ probe  # M v, M Fx v, M Fy v
                moved = w[:, 1:].T - w[:, 0].take(perms[1:3, : len(matrix)])
                spread = max(spread, float(np.abs(moved).max(initial=0.0)))
                size = max(size, float(np.abs(w).max(initial=0.0)))
            return spread <= INVARIANCE_TOL * size

        return invariant

    @cached_property
    def node_blocks(self):
        """The region's nodes in K's four character blocks (NodeBlocks), or None.

        Built once per problem where K maps the region onto itself
        (node_reflections) and it has BLOCKS_MIN_NODES nodes or more.
        """
        if self.n_local < BLOCKS_MIN_NODES or self.node_reflections is None:
            return None
        return NodeBlocks(self.node_reflections, self.n_interior, self.a_ll,
                          self.reflection_invariant)


# The elements of the reflection group K as sign flips of (x, y) about the
# decoupled node: e, Fx, Fy and R180 = Fx Fy.
REFLECTIONS = np.array([[1, 1], [-1, 1], [1, -1], [-1, -1]])
# K's four characters, one per row, as their values on REFLECTIONS: the
# trivial one first, then the ones odd under Fx, under Fy, and under both.
CHARACTERS = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
                      dtype=float)
# LocalProblem.reflection_invariant's tolerance: the states and steps of scalar
# minimizations read at most 1.3e-15 (m = 1..10, lambda from 0 to 8).
INVARIANCE_TOL = 1e-12
# The fewest nodes that have K's node blocks (LocalProblem.node_blocks): they
# save flops but cost numpy calls.  A scalar minimization (best of 5 at
# lambda in {0, 1, 3.5}, x86_64) took 13 -> 20 ms with them at m = 3 (25
# nodes), 21 -> 22 ms at m = 5 (61) and 45 -> 38 ms at m = 6 (85).
BLOCKS_MIN_NODES = 80


@dataclass(frozen=True, eq=False)
class SymmetryBlock:
    """One character block of an orthonormal basis of n items (orbit_blocks).

    The items are the unknowns (reflection_blocks) or the nodes
    (NodeBlocks).  Column b holds weights[b, t] at item members[b, t],
    t < width: the orbit sum sum_g chi(g) e_(g k) / sqrt(|orbit|) over the
    orbit of its least member k = members[b, 0], one term per orbit member;
    a member that repeats in a row has weight 0.  norms[b] is sqrt(|orbit|).
    """

    members: np.ndarray  # (n_block, width) intp
    weights: np.ndarray  # (n_block, width)
    norms: np.ndarray  # (n_block,)

    @classmethod
    def identity(cls, n):
        """The one block of the group {e}: unknown b alone, with weight 1."""
        return cls(np.arange(n)[:, None], np.ones((n, 1)), np.ones(n))

    def __len__(self):
        return len(self.members)

    def project(self, x):
        """B^T x: the coordinates in this block of x over the items."""
        out = self.weights[:, 0] * x[self.members[:, 0]]
        for t in range(1, self.members.shape[1]):
            out += self.weights[:, t] * x[self.members[:, t]]
        return out

    @cached_property
    def _pairs(self):
        """(column, item, weight) of each nonzero term, by column: each item's one term."""
        column, t = np.nonzero(self.weights)  # a repeated member has weight 0
        return column, self.members[column, t], self.weights[column, t]

    def expand(self, coeffs, n):
        """B c: the n items of these block coordinates, zero off the block.

        coeffs may be a stack of coordinate rows, (..., k), over the block's
        first k columns; each row is expanded.
        """
        column, item, weight = self._pairs
        end = np.searchsorted(column, coeffs.shape[-1])  # the first k columns' terms
        x = np.zeros(coeffs.shape[:-1] + (n,))
        x[..., item[:end]] = coeffs[..., column[:end]] * weight[:end]
        return x


def orbit_blocks(images):
    """The orthonormal orbit-sum basis of n items under K, split into K's character blocks.

    images is K's (4, n) permutation of the items, in REFLECTIONS' order.
    Returns four SymmetryBlocks, the trivial character's first, each orbit
    sum in the blocks of the characters that are 1 on its stabilizer; an
    item fixed by a reflection, as a node on an axis is, lies in two
    blocks, or in one where K fixes it.  Within a block, the orbits are in
    the order of their least members.  A matrix that commutes with K is
    block diagonal in this basis (Faessler & Stiefel, Group Theoretical
    Methods and Their Applications, 1992).
    """
    n = images.shape[1]
    least = np.flatnonzero(images.min(axis=0) == np.arange(n))
    members = images[:, least]
    first = np.ones(members.shape, dtype=bool)  # member g is not one of g' < g
    for g in range(1, len(members)):
        first[g] = np.all(members[g] != members[:g], axis=0)
    norms = np.sqrt(first.sum(axis=0))
    stabilizer = members == least
    blocks = []
    for chi in CHARACTERS:
        inside = ~np.any(stabilizer & (chi[:, None] < 0), axis=0)
        weights = np.where(first, chi[:, None], 0.0)[:, inside] / norms[inside]
        blocks.append(SymmetryBlock(np.ascontiguousarray(members[:, inside].T),
                                    np.ascontiguousarray(weights.T), norms[inside]))
    return tuple(blocks)


def reflection_blocks(problem, free=None):
    """The unknowns' orthonormal basis, split into K's character blocks.

    The unknowns are the target pattern's free values, or those in `free`
    (ascending) alone, numbered in their order.  Returns a tuple of
    SymmetryBlock, the trivial character's first: where K maps the problem
    (LocalProblem.reflection_images) and the unknowns onto themselves,
    orbit_blocks' four; else the one block of {e}.  The normal matrix of a
    reflection-invariant state commutes with K, so it is block diagonal in
    this basis.
    """
    n = problem.target_pattern.n_entries if free is None else len(free)
    images = problem.reflection_images
    if images is not None and free is not None:
        position = np.full(problem.target_pattern.n_entries, -1)
        position[free] = np.arange(n)
        images = position[images[:, free]]
        if np.any(images < 0):  # the pins split an orbit
            images = None
    if images is None:
        return (SymmetryBlock.identity(n),)
    return orbit_blocks(images)


class NodeBlocks:
    """The region's nodes in the four character blocks of K, as zero-padded stacks.

    NodeBlocks(perms, n_interior, a_ll, invariant) takes K's (4, n_local)
    node permutations and check (LocalProblem.node_reflections and
    reflection_invariant).  blocks is orbit_blocks over the nodes;
    interior[c] counts block c's interior orbits, which come first, since
    the interior nodes do.

    An n_local x n_local matrix M that K maps onto itself, M[g k, g k'] =
    M[k, k'], is block diagonal in this basis, and stack holds its blocks
    M_c = B_c^T M B_c, zero-padded to (4, n0, n0) for the largest block's
    n0.  Since M commutes with K, entry (a, b) is
    sqrt|O_a| sqrt|O_b| / 4 sum_g chi_c(g) M[k_a, g k_b] for the least
    members k_a, k_b of the orbits O_a, O_b of columns a and b: stack
    gathers M[k, g k'] over every pair of orbits and each g, forms K's four
    character sums from them, and picks each block's pairs.  As that reads
    only the rows at least members, stack returns None, for the caller to
    read node coordinates, where invariant rejects a matrix.  a_ll is A_LL's
    blocks.  Every array is read-only.
    """

    def __init__(self, perms, n_interior, a_ll, invariant):
        n = len(a_ll)
        self.invariant = invariant
        self.blocks = orbit_blocks(perms)
        self.interior = tuple(int(np.sum(b.members[:, 0] < n_interior)) for b in self.blocks)
        n0 = max(map(len, self.blocks))
        least = self.blocks[0].members[:, 0]  # each orbit's least member: the trivial block has all
        self._n_interior = n_interior
        # stack's flat indices: of M[k, g k'] for least members k, k', and of
        # each block's orbit pairs among the character sums (0 in the
        # padding), with their sqrt|O| / 2 (0 in the padding)
        self._gather = least[:, None] * n + perms[:, least][:, None, :]
        orbits = np.zeros((len(self.blocks), n0), dtype=np.intp)
        self._half_norms = np.zeros((len(self.blocks), n0))
        for c, block in enumerate(self.blocks):
            orbits[c, : len(block)] = np.searchsorted(least, block.members[:, 0])
            self._half_norms[c, : len(block)] = 0.5 * block.norms
        self._pick = ((np.arange(len(self.blocks))[:, None, None] * len(least) + orbits[:, :, None])
                      * len(least) + orbits[:, None, :])
        self.a_ll = self.stack((a_ll,))[0]  # node_reflections checked A_LL's invariance
        for a in [self.a_ll, self._gather, self._half_norms, self._pick]:
            a.flags.writeable = False

    def stack(self, matrices):
        """The (len(matrices), 4, n0, n0) blocks of the matrices, or None for one not invariant."""
        if not self.invariant(matrices):
            return None
        out = np.empty((len(matrices),) + self._pick.shape)
        for matrix, blocks in zip(matrices, out):
            if len(matrix) > self._n_interior:
                m = matrix.take(self._gather)  # M[k, g k'], g in REFLECTIONS' order
            else:  # the interior rows: the other orbits' rows are zero
                rows = self.interior[0]
                m = np.zeros(self._gather.shape)
                m[:, :rows] = matrix.take(self._gather[:, :rows])
            # CHARACTERS' sums in place: plus_e + plus_Fy, minus_e + minus_Fy,
            # plus_e - plus_Fy and minus_e - minus_Fy, where plus_g and
            # minus_g are M[., g .] +- M[., g Fx .]
            minus = m[0::2] - m[1::2]
            np.add(m[0::2], m[1::2], out=m[0::2])
            np.add(minus[0], minus[1], out=m[1])
            np.subtract(minus[0], minus[1], out=m[3])
            np.subtract(m[0], m[2], out=minus[0])
            np.add(m[0], m[2], out=m[0])
            m[2] = minus[0]
            m.take(self._pick, out=blocks)
        out *= self._half_norms[:, :, None]
        out *= self._half_norms[:, None, :]
        return out


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
