"""Lattice operators, sparsity patterns, and local problem extraction.

The model operator is the five-point stencil: diagonal value lambda - 4 and
unit couplings to the four axis neighbors, truncated where a neighbor is
missing.  One constructor (stencil) builds it as a dense numpy array on any
set of integer nodes: the local region of a problem, the region and its ring
of grid neighbours that analysis.global_verify checks an embedding on, or
the explicit row-major grid (build_helmholtz).  Decoupling a
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
the gauge directions of dA in those coordinates.  OrbitStacks is the one
place a matrix is put into the character blocks of the reflections about
the decoupled node: it holds the orbits of the items they permute and
forms the blocks, as one zero-padded stack, from the matrix's rows at each
orbit's least member.  reflection_blocks builds it over the free values,
or over the identity alone where the reflections do not map them, and
LocalProblem.node_blocks (NodeBlocks) over the region's nodes.
Node blocks exist only where the split and the line search read them: in
scalar regions of BLOCKS_MIN_NODES nodes or more.  Elsewhere node_blocks is None.
"""

import math
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
        the region onto itself (node_reflections).  Each matrix is n_local x
        n_local: dY's interior rows are read zero-padded to one.  M[g k, g k']
        = M[k, k'] where M commutes with Fx and Fy, which is probed on one
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
                moved = w[:, 1:].T - w[:, 0].take(perms[1:3])
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
# save flops but cost numpy calls.  With every product of a step in the
# blocks, a scalar minimization (best of 5, mean over lambda in {0, 1, 3.5},
# x86_64, one BLAS thread) took 16.1 -> 23.1 ms with them at m = 3 (25
# nodes), 22.4 -> 27.8 ms at m = 4 (41), 35.3 -> 36.1 ms at m = 5 (61),
# 60.9 -> 55.0 ms at m = 6 (85) and 128 -> 82 ms at m = 7 (113).
BLOCKS_MIN_NODES = 80


class OrbitStacks:
    """The orbits of a group of item permutations, and its character blocks as one stack.

    OrbitStacks(images) takes the group's (order, n) item permutations, the
    identity first: K's four in REFLECTIONS' order, over the nodes or the
    unknowns, or the identity alone.  The orthonormal basis is the orbit
    sums sum_g chi(g) e_(g k), normalized, over the orbit O of each least
    member k, one per character chi (CHARACTERS, or the identity's one)
    that is 1 on k's stabilizer: a node on an axis lies in two of K's
    blocks, the decoupled node in one.  A matrix M that commutes with the
    group, M[g k, g k'] = M[k, k'], is block diagonal in this basis
    (Faessler & Stiefel, Group Theoretical Methods and Their Applications,
    1992).

    least holds each orbit's least member, members its images
    (images[:, least]) and norms sqrt|O|; item i is members[element[i],
    orbit[i]].  orbits[c] lists block c's orbits, ascending, and sizes
    their counts; the first block, the trivial one, has every orbit.
    combine forms the blocks B_c^T M B_c, zero-padded to shape = (n_c, n0,
    n0), from M's rows at the least members alone: entry (a, b) is
    half_norms[c, a] half_norms[c, b] sum_g chi_c(g) M[k_a, g k_b], where
    half_norms is sqrt|O| / sqrt(order).  project and expand are B^T and B
    of the trivial block.  Every array is read-only.
    """

    def __init__(self, images):
        self.images = images
        order, self.n = images.shape
        self.least = np.flatnonzero(images.min(axis=0) == np.arange(self.n))
        self.members = images[:, self.least]
        stabilizer = self.members == self.least
        self.norms = np.sqrt(order / stabilizer.sum(axis=0))
        characters = CHARACTERS if order > 1 else np.ones((1, 1))
        self.orbits = tuple(np.flatnonzero(~np.any(stabilizer & (chi[:, None] < 0), axis=0))
                            for chi in characters)
        self.sizes = tuple(map(len, self.orbits))
        self.shape = (len(characters), self.sizes[0], self.sizes[0])
        self.sums_shape = (len(self.least), order, len(self.least))
        self._padded = np.zeros(self.shape[:2], dtype=np.intp)  # each block's orbits
        self.half_norms = np.zeros(self.shape[:2])  # 0 on the padding
        for c, orbits in enumerate(self.orbits):
            self._padded[c, : len(orbits)] = orbits
            self.half_norms[c, : len(orbits)] = self.norms[orbits] / math.sqrt(order)
        self.orbit = np.empty(self.n, dtype=np.intp)
        self.element = np.empty(self.n, dtype=np.intp)
        for g in range(order - 1, -1, -1):  # e last, where it fixes an item
            self.orbit[self.members[g]] = np.arange(len(self.least))
            self.element[self.members[g]] = g
        for a in [images, self.least, self.members, self.norms, *self.orbits,
                  self.half_norms, self.orbit, self.element]:
            a.flags.writeable = False

    @cached_property
    def pick(self):
        """Each block entry's flat index among the sums; the padding's is one past them."""
        order, n_orbits = self.sums_shape[1:]
        pick = ((self._padded[:, :, None] * order + np.arange(self.shape[0])[:, None, None])
                * n_orbits + self._padded[:, None, :])
        pick[(self.half_norms[:, :, None] * self.half_norms[:, None, :]) == 0.0] = \
            math.prod(self.sums_shape)
        pick.flags.writeable = False
        return pick

    def combine(self, sums, out):
        """The blocks, into out, of sums[a, g, b] = M[k_a, g k_b] (sums_shape); returns out.

        The sums are overwritten with K's character sums.  Under the
        identity, M is its one block, and sums is out's own memory.
        """
        if len(self.members) == 1:
            return out
        _character_sums(sums)
        sums.take(self.pick, out=out, mode="clip")  # the padding reads the last, times 0
        out *= self.half_norms[:, :, None]
        out *= self.half_norms[:, None, :]
        return out

    def project(self, x):
        """B^T x: x's coordinates in the trivial block; under the identity, x's bits (-0.0 too)."""
        out = x.take(self.members[0])
        for members in self.members[1:]:
            out += x.take(members)
        out *= self.norms / len(self.members)
        return out

    def expand(self, coeffs):
        """B c: the items of the trivial block's coordinates c."""
        return coeffs[self.orbit] / self.norms[self.orbit]


def reflection_blocks(problem, free=None):
    """The unknowns' OrbitStacks: under K where it maps them onto themselves, else the identity.

    The unknowns are the target pattern's free values, or those in `free`
    (ascending) alone, numbered in their order; a pinned set that splits an
    orbit of K (LocalProblem.reflection_images) leaves the identity.  The
    normal matrix of a reflection-invariant state commutes with K.
    """
    n = problem.target_pattern.n_entries if free is None else len(free)
    images = problem.reflection_images
    if images is not None and free is not None:
        position = np.full(problem.target_pattern.n_entries, -1)
        position[free] = np.arange(n)
        images = position[images[:, free]]
        if np.any(images < 0):  # the pins split an orbit
            images = None
    return OrbitStacks(np.arange(n)[None] if images is None else images)


class NodeBlocks:
    """The region's nodes in the four character blocks of K, as zero-padded stacks.

    NodeBlocks(perms, n_interior, a_ll, invariant) takes K's (4, n_local)
    node permutations and check (LocalProblem.node_reflections and
    reflection_invariant).  orbits is their OrbitStacks; interior[c] counts
    block c's interior orbits, which come first, as the interior nodes do.
    stack gathers n_local x n_local matrices M at the least members' rows,
    M[k, g k'], and combines them (OrbitStacks.combine).  As that reads
    only those rows, stack returns None, for the caller to read node
    coordinates, where invariant rejects a matrix.  unstack is its inverse: the
    character sums of the blocks' entries, over sqrt|O_a| sqrt|O_b|, give
    M[k_a, g k_b] (the four characters are orthogonal), and M[h k_a, k'] =
    M[k_a, h k'] every other entry.  a_ll is A_LL's blocks.  Every array
    is read-only.
    """

    def __init__(self, perms, n_interior, a_ll, invariant):
        n = len(a_ll)
        self.invariant = invariant
        self.orbits = orbits = OrbitStacks(perms)
        self.interior = tuple(int(np.sum(orbits.least[o] < n_interior)) for o in orbits.orbits)
        # stack's flat indices, of M[k, g k'] for least members k, k'
        self._gather = orbits.least[:, None, None] * n + orbits.members[None]
        self.a_ll = self.stack((a_ll,))[0]  # node_reflections checked A_LL's invariance
        for a in [self.a_ll, self._gather]:
            a.flags.writeable = False

    def stack(self, matrices, beside=()):
        """The (len(matrices), 4, n0, n0) blocks of square matrices, or None for one not invariant.

        The check reads the matrices beside them too, at the tolerance of
        the largest of all: a step is checked beside its state's A~, so that
        the rounding of a step near zero passes.
        """
        if not self.invariant((*matrices, *beside)):
            return None
        out = np.empty((len(matrices),) + self.orbits.shape)
        for matrix, blocks in zip(matrices, out):
            self.orbits.combine(matrix.take(self._gather), out=blocks)
        return out

    def unstack(self, blocks, at=None):
        """The n_local x n_local matrix M whose (4, n0, n0) blocks these are, or M[rows, cols].

        stack's inverse; `at` is (rows, cols), index arrays of one shape.
        """
        orbits = self.orbits
        sums = np.zeros(self._gather.size + 1)  # and one past them, for the padding
        inv_norms = np.divide(0.5, orbits.half_norms, out=np.zeros(orbits.shape[:2]),
                              where=orbits.half_norms > 0.0)
        scaled = blocks * inv_norms[:, :, None]
        scaled *= inv_norms[:, None, :]
        sums[orbits.pick] = scaled
        del scaled
        sums = sums[:-1].reshape(self._gather.shape)
        _character_sums(sums)  # M[k_a, g k_b] at [a, g, b]
        n_orbits = len(orbits.least)
        if at is not None:  # M[h k_a, j] = M[k_a, h j]
            rows, cols = at
            moved = orbits.images[orbits.element[rows], cols]
            return sums.take((orbits.orbit[rows] * 4 + orbits.element[moved]) * n_orbits
                             + orbits.orbit[cols])
        out = np.empty((orbits.n,) * 2)
        out.ravel()[self._gather] = sums
        rows = out[orbits.least]
        for image, members in zip(orbits.images[1:], orbits.members[1:]):
            out[members] = rows.take(image, axis=1)
        return out


def _character_sums(m):
    """K's four character sums of m[:, g], g in REFLECTIONS' order, in place, in CHARACTERS' order.

    The sums are plus_e + plus_Fy, minus_e + minus_Fy, plus_e - plus_Fy and
    minus_e - minus_Fy, where plus_g and minus_g are m[:, g] +- m[:, g Fx].
    CHARACTERS is symmetric, so applied twice this gives 4 m.
    """
    minus = m[:, 0::2] - m[:, 1::2]
    np.add(m[:, 0::2], m[:, 1::2], out=m[:, 0::2])
    np.add(minus[:, 0], minus[:, 1], out=m[:, 1])
    np.subtract(minus[:, 0], minus[:, 1], out=m[:, 3])
    np.subtract(m[:, 0], m[:, 2], out=minus[:, 0])
    np.add(m[:, 0], m[:, 2], out=m[:, 0])
    m[:, 2] = minus[:, 0]


def stencil(coords, lam):
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
    return stencil([(x, y) for y in range(spec.height) for x in range(spec.width)],
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
        a_ll=stencil(layout.order, lam),
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
