import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecoarsen import lattice
from sparsecoarsen.lattice import (
    BLOCKS_MIN_NODES,
    CHARACTERS,
    INVARIANCE_TOL,
    REFLECTIONS,
    SparsityPattern,
    StencilSpec,
    build_helmholtz,
    checkerboard_diagonal,
    decoupled_pattern,
    extract_local_scalar,
    extract_local_supernode,
    gauge_basis,
    reflection_blocks,
    supernode_layout,
)


def dense_gauge_basis(problem, a_tilde):
    """gauge_basis's triplets as an n_pattern x gauge_dim array."""
    rows, cols, values = gauge_basis(problem, a_tilde)
    basis = np.zeros((problem.target_pattern.n_entries, problem.gauge_dim))
    basis[rows, cols] = values
    return basis


def node_reflections(problem):
    """Each element of REFLECTIONS as a node permutation, looked up coordinate by coordinate."""
    coords = [tuple(c) for c in problem.coords.tolist()]
    index = {c: k for k, c in enumerate(coords)}
    return [np.array([index[(sx * x, sy * y)] for x, y in coords]) for sx, sy in REFLECTIONS]


def dense_blocks(blocks, n):
    """Each SymmetryBlock as an n x len(block) array: its basis columns."""
    return [np.column_stack([b.expand(e, n) for e in np.eye(len(b))]) if len(b)
            else np.zeros((n, 0)) for b in blocks]


def region_size(m):
    # diamond of radius m on the integer lattice
    return 2 * m * m + 2 * m + 1


class TestBuildHelmholtz:
    def test_shape_and_symmetry(self):
        a = build_helmholtz(StencilSpec(lam=1.5, width=4, height=3))
        assert isinstance(a, np.ndarray)
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert a.shape == (12, 12)
        assert np.array_equal(a, a.T)

    def test_stencil_values(self):
        w, h, lam = 5, 4, 2.0
        a = build_helmholtz(StencilSpec(lam=lam, width=w, height=h))
        for y in range(h):
            for x in range(w):
                k = y * w + x
                assert a[k, k] == lam - 4.0
                expected_neighbors = {
                    (x + dx) + (y + dy) * w
                    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                    if 0 <= x + dx < w and 0 <= y + dy < h
                }
                found = {j for j in range(w * h) if j != k and a[k, j] != 0.0}
                assert found == expected_neighbors
                assert all(a[k, j] == 1.0 for j in found)

    def test_interior_row_count(self):
        # interior rows: diagonal + 4 unit couplings
        a = build_helmholtz(StencilSpec(lam=0.0, width=5, height=5))
        center = 2 * 5 + 2
        assert np.count_nonzero(a[center]) == 5

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            StencilSpec(lam=0.0, width=0, height=3)


class TestCheckerboard:
    def test_signs(self):
        d = checkerboard_diagonal(3, 2)
        assert d.tolist() == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]

    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0, 3.0, 3.5])
    def test_lambda_reflection_identity(self, lam):
        # -D A(lam) D = A(8 - lam), exactly
        w, h = 5, 5
        a = build_helmholtz(StencilSpec(lam=lam, width=w, height=h))
        b = build_helmholtz(StencilSpec(lam=8.0 - lam, width=w, height=h))
        d = checkerboard_diagonal(w, h)
        assert np.array_equal(-(d[:, None] * a * d[None, :]), b)

    def test_example_lambda_3_to_5(self):
        a3 = build_helmholtz(StencilSpec(lam=3.0, width=5, height=5))
        a5 = build_helmholtz(StencilSpec(lam=5.0, width=5, height=5))
        d = checkerboard_diagonal(5, 5)
        assert np.array_equal(-(d[:, None] * a3 * d[None, :]), a5)


class TestSparsityPattern:
    def test_membership_is_symmetric(self):
        pat = SparsityPattern.from_pairs(4, [(0, 1), (2, 2)])
        assert (0, 1) in pat and (1, 0) in pat
        assert (2, 2) in pat
        assert (0, 2) not in pat

    @given(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    )
    def test_membership_order_free(self, i, j):
        pat = SparsityPattern.from_pairs(10, [(i, j)])
        assert (i, j) in pat and (j, i) in pat
        assert pat.n_entries == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparsityPattern.from_pairs(3, [(0, 3)])

    def test_mask_matches_entries(self):
        pat = SparsityPattern.from_pairs(3, [(0, 0), (1, 2)])
        mask = pat.mask()
        assert mask[0, 0] and mask[1, 2] and mask[2, 1]
        assert mask.sum() == 3

    @pytest.mark.parametrize("problem", [extract_local_scalar(4, 0.0),
                                         extract_local_supernode(2, 2, 1, 0.0)],
                             ids=["scalar", "supernode"])
    def test_mask_is_membership(self, problem):
        pat = problem.target_pattern
        n = pat.dim
        expected = np.array([[(i, j) in pat for j in range(n)] for i in range(n)])
        assert np.array_equal(pat.mask(), expected)

    @pytest.mark.parametrize("problem", [extract_local_scalar(2, 0.0),
                                         extract_local_supernode(1, 2, 1, 0.0)],
                             ids=["scalar", "supernode"])
    def test_embed_holds_values_at_positions_only(self, problem):
        pat = problem.target_pattern
        rows, cols = pat.index_arrays
        values = np.arange(1.0, pat.n_entries + 1)
        out = pat.embed(values)
        assert np.array_equal(out, out.T)
        assert np.array_equal(out[rows, cols], values)
        out[rows, cols] = out[cols, rows] = 0.0
        assert not out.any()
        assert np.array_equal(pat.mask(), pat.embed(np.ones(pat.n_entries)))

    def test_multiplicity_is_lazy_and_read_only(self):
        pat = SparsityPattern.from_pairs(3, [(0, 0), (1, 2)])
        assert "multiplicity" not in vars(pat)
        assert pat.multiplicity.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            pat.multiplicity[0] = 2.0

    # The assembly's rhs and the gradient rest on this identity.
    @given(st.sampled_from([(1, 1, 1), (2, 1, 1), (3, 1, 1), (1, 2, 1),
                            (2, 2, 1), (1, 1, 2), (2, 1, 2)]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_inner_product_identity(self, region, seed):
        m, p, q = region
        pat = extract_local_supernode(m, p, q, 0.0).target_pattern
        rows, cols = pat.index_arrays
        rng = np.random.default_rng(seed)
        # small integers, so both sides are exact
        values = rng.integers(-9, 10, pat.n_entries).astype(float)
        sym = rng.integers(-9, 10, (pat.dim, pat.dim)).astype(float)
        sym += sym.T
        assert np.sum(pat.embed(values) * sym) == \
            np.sum(pat.multiplicity * sym[rows, cols] * values)
        filled = [np.count_nonzero(pat.embed(np.eye(pat.n_entries)[k]))
                  for k in range(pat.n_entries)]
        assert np.array_equal(pat.multiplicity, filled)


class TestDecoupledPattern:
    def test_removes_row_and_column(self):
        pat = SparsityPattern.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
        dec = decoupled_pattern(pat, 1)
        assert (1, 1) in dec
        assert (0, 1) not in dec and (1, 2) not in dec
        assert (0, 0) in dec and (2, 2) in dec

    def test_idempotent(self):
        pat = extract_local_scalar(2, 0.0).target_pattern
        c = 0
        assert decoupled_pattern(pat, c).entries == pat.entries

    def test_bad_index_rejected(self):
        pat = SparsityPattern.from_pairs(3, [(0, 0)])
        with pytest.raises(ValueError):
            decoupled_pattern(pat, 5)
        with pytest.raises(ValueError):
            decoupled_pattern(pat, 1)  # (1, 1) missing from base


class TestExtractLocalScalar:
    @given(st.integers(min_value=1, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_region_counts(self, m):
        prob = extract_local_scalar(m, 0.0)
        assert prob.n_local == region_size(m)
        assert prob.n_interior == region_size(m - 1)
        assert prob.n_local - prob.n_interior == 4 * m

    def test_m1_counts(self):
        prob = extract_local_scalar(1, 0.0)
        assert (prob.n_local, prob.n_interior) == (5, 1)

    def test_m2_and_m3_counts(self):
        p2 = extract_local_scalar(2, 0.0)
        assert (p2.n_local, p2.n_interior) == (13, 5)
        p3 = extract_local_scalar(3, 0.0)
        assert (p3.n_local, p3.n_interior) == (25, 13)

    def test_decoupled_is_first_interior(self):
        prob = extract_local_scalar(3, 1.0)
        assert prob.decoupled == 0
        assert prob.decoupled < prob.n_interior
        assert tuple(prob.coords[0]) == (0, 0)

    def test_interior_then_boundary_ordering(self):
        prob = extract_local_scalar(3, 1.0)
        assert (prob.n_interior, prob.n_local) == (13, 25)
        dist = np.abs(prob.coords).sum(axis=1)
        assert dist[:prob.n_interior].max() == 2
        assert set(dist[prob.n_interior:]) == {3}

    def test_a_ll_values(self):
        lam = 2.5
        prob = extract_local_scalar(2, lam)
        a = prob.a_ll
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == lam - 4.0)
        coords = [tuple(c) for c in prob.coords]
        for u, cu in enumerate(coords):
            for v, cv in enumerate(coords):
                if u == v:
                    continue
                expect = 1.0 if abs(cu[0] - cv[0]) + abs(cu[1] - cv[1]) == 1 else 0.0
                assert a[u, v] == expect

    def test_target_pattern_m2_count(self):
        # 13 diagonal + 16 stencil couplings - 4 decoupled = 25 free positions
        prob = extract_local_scalar(2, 0.0)
        assert prob.target_pattern.n_entries == 25
        c = prob.decoupled
        assert (c, c) in prob.target_pattern
        assert all((c, j) not in prob.target_pattern for j in range(1, 13))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
    def test_target_pattern_count_formula(self, m):
        # diag (2m^2+2m+1) + edges (4m^2) - 4 removed at the decoupled node
        prob = extract_local_scalar(m, 0.0)
        assert prob.target_pattern.n_entries == 6 * m * m + 2 * m - 3

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            extract_local_scalar(0, 0.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_global_submatrix(self, m):
        # embed the diamond at the center of a (2m+3)^2 grid and compare
        w = 2 * m + 3
        lam = 1.25
        glob = build_helmholtz(StencilSpec(lam=lam, width=w, height=w))
        prob = extract_local_scalar(m, lam)
        cx = cy = (w - 1) // 2
        gidx = [(cy + dy) * w + (cx + dx) for dx, dy in prob.coords]
        np.testing.assert_array_equal(glob[np.ix_(gidx, gidx)], prob.a_ll)


class TestSupernodes:
    def test_layout_tiles_disjointly(self):
        layout = supernode_layout(2, 2, 1)
        seen = [n for ids in layout.node_ids for n in ids]
        assert len(seen) == len(set(seen)) == region_size(2) * 2

    @pytest.mark.parametrize("m,p,q", [
        (1, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2), (2, 3, 1), (2, 2, 3)])
    def test_pattern_couples_members_of_coupled_supernodes(self, m, p, q):
        # Independent rule: two supernodes are adjacent when any of their
        # members share a nonzero stencil coupling.  Off the decoupled row,
        # the pattern is every pair within one supernode or two adjacent ones.
        prob = extract_local_supernode(m, p, q, 0.0)
        node_ids = supernode_layout(m, p, q).node_ids
        c = prob.decoupled
        adjacent = {(a, b) for a, ia in enumerate(node_ids)
                    for b, ib in enumerate(node_ids)
                    if a == b or np.any(prob.a_ll[np.ix_(ia, ib)] != 0.0)}
        expected = {(k, k) for k in range(prob.n_local)}
        expected |= {(min(u, v), max(u, v)) for a, b in adjacent
                     for u in node_ids[a] for v in node_ids[b]
                     if c not in (u, v)}
        assert prob.target_pattern.entries == expected

    @pytest.mark.parametrize(
        "m,p,q,n_l,n_i,n_b",
        [(1, 2, 1, 10, 2, 8), (2, 2, 1, 26, 10, 16), (1, 2, 2, 20, 4, 16)],
    )
    def test_region_counts(self, m, p, q, n_l, n_i, n_b):
        prob = extract_local_supernode(m, p, q, 0.0)
        assert (prob.n_local, prob.n_interior, prob.n_local - prob.n_interior) == \
            (n_l, n_i, n_b)

    def test_count_formula(self):
        for m, p, q in [(1, 2, 1), (2, 2, 2), (3, 3, 2)]:
            prob = extract_local_supernode(m, p, q, 0.0)
            assert prob.n_local == region_size(m) * p * q
            assert prob.n_local - prob.n_interior == 4 * m * p * q

    @pytest.mark.parametrize("m,p,q,gauge", [
        (2, 2, 1, 18), (3, 2, 1, 50), (4, 2, 1, 98), (2, 1, 2, 18),
        (2, 3, 1, 41), (3, 3, 1, 113), (2, 2, 2, 74), (3, 2, 2, 202)])
    def test_gauge_count(self, m, p, q, gauge):
        # b^2 N - 2(b - 1): b = p q nodes per supernode, N interior supernodes
        b = p * q
        prob = extract_local_supernode(m, p, q, 0.0)
        assert prob.gauge_dim == b * b * region_size(m - 1) - 2 * (b - 1) == gauge

    def test_scalar_gauge_count_is_interior_count(self):
        for m in range(1, 8):
            prob = extract_local_scalar(m, 0.0)
            assert prob.gauge_dim == prob.n_interior

    def test_degenerate_1x1_matches_scalar(self):
        for m in (1, 2, 3):
            a = extract_local_scalar(m, 1.5)
            b = extract_local_supernode(m, 1, 1, 1.5)
            np.testing.assert_array_equal(a.a_ll, b.a_ll)
            assert a.target_pattern.entries == b.target_pattern.entries
            assert a.n_interior == b.n_interior and a.n_local == b.n_local
            np.testing.assert_array_equal(a.coords, b.coords)

    def test_fill_superset_of_stencil(self):
        prob = extract_local_supernode(2, 2, 1, 0.0)
        stencil_pairs = {
            (min(u, v), max(u, v))
            for u in range(prob.n_local)
            for v in range(prob.n_local)
            if u != v and prob.a_ll[u, v] != 0.0
        }
        c = prob.decoupled
        stencil_pairs = {e for e in stencil_pairs if c not in e}
        assert stencil_pairs <= prob.target_pattern.entries

    def test_fill_positions_start_at_zero(self):
        prob = extract_local_supernode(1, 2, 1, 0.0)
        mask = prob.target_pattern.mask()
        filled_only = mask & (prob.a_ll == 0.0)
        assert filled_only.any()
        assert np.all(prob.a_ll[filled_only] == 0.0)

    def test_decoupled_row_pattern(self):
        prob = extract_local_supernode(1, 2, 1, 0.0)
        c = prob.decoupled
        assert c == 0 and tuple(prob.coords[c]) == (0, 0)
        assert (c, c) in prob.target_pattern
        assert all((c, j) not in prob.target_pattern for j in range(1, prob.n_local))


class TestGaugeBasis:
    @pytest.mark.parametrize("m,p,q", [(1, 1, 1), (3, 1, 1), (1, 2, 1), (2, 2, 1),
                                       (2, 1, 2), (2, 3, 1), (2, 2, 2)])
    def test_columns_are_the_block_gauge_directions(self, m, p, q):
        # dA = D^T A~ + A~ D, D = e_u e_v^T, for each ordered member pair
        # (u, v) of an interior supernode, less the 2(b - 1) pairs that join
        # the decoupled node c to another member, at a random patterned A~
        problem = extract_local_supernode(m, p, q, 0.0)
        pattern = problem.target_pattern
        rows, cols = pattern.index_arrays
        a = pattern.embed(np.random.default_rng(10 * m + p).standard_normal(pattern.n_entries))
        c = problem.decoupled
        columns = []
        for ids in supernode_layout(m, p, q).node_ids:
            if max(ids) >= problem.n_interior:
                continue
            for u, v in itertools.product(ids, ids):
                if u != v and c in (u, v):
                    continue
                d = np.zeros_like(a)
                d[u, v] = 1.0
                da = d.T @ a + a @ d
                np.testing.assert_array_equal(pattern.embed(da[rows, cols]), da)
                columns.append(da[rows, cols])
        assert len(columns) == problem.gauge_dim
        np.testing.assert_array_equal(dense_gauge_basis(problem, a), np.column_stack(columns))

    @pytest.mark.parametrize("m,p,q", [(3, 1, 1), (2, 2, 1), (2, 2, 2)])
    def test_triplets_sorted_by_row_and_distinct(self, m, p, q):
        problem = extract_local_supernode(m, p, q, 1.0)
        rows, cols, _ = gauge_basis(problem, problem.a_ll)
        assert np.all(np.diff(rows) >= 0)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
        assert cols.min() == 0 and cols.max() == problem.gauge_dim - 1
        assert not any(a.flags.writeable for a in problem.gauge_support)

    def test_scalar_directions_touch_their_node_alone_on_the_diagonal(self):
        # direction i has 2 A~_ii at free value (i, i), and no other
        # direction has an entry there: the pins fix the scalar gauge
        problem = extract_local_scalar(3, 0.5)
        basis = dense_gauge_basis(problem, problem.a_ll)
        rows, cols = problem.target_pattern.index_arrays
        diagonal = np.flatnonzero((rows == cols) & (rows < problem.n_interior))
        np.testing.assert_array_equal(basis[diagonal],
                                      np.diag(2.0 * np.diag(problem.a_ll)[rows[diagonal]]))


class TestReflectionBlocks:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_images_are_the_reflected_free_values(self, m):
        # each reflection maps free value (i, j) to the free value at (g i, g j)
        problem = extract_local_scalar(m, 1.0)
        positions = problem.target_pattern.positions()
        index = {pos: k for k, pos in enumerate(positions)}
        images = problem.reflection_images
        assert images.shape == (4, len(positions)) and not images.flags.writeable
        for perm, image in zip(node_reflections(problem), images):
            assert np.all(perm[: problem.n_interior] < problem.n_interior)
            assert np.array_equal(problem.a_ll[np.ix_(perm, perm)], problem.a_ll)
            want = [index[tuple(sorted((int(perm[i]), int(perm[j]))))] for i, j in positions]
            np.testing.assert_array_equal(image, want)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("pinned", [False, True])
    def test_blocks_are_an_orthonormal_basis_of_the_unknowns(self, m, pinned):
        problem = extract_local_scalar(m, 0.0)
        rows, cols = problem.target_pattern.index_arrays
        free = np.flatnonzero((rows != cols) | (rows >= problem.n_interior)) if pinned else None
        n = problem.target_pattern.n_entries if free is None else len(free)
        blocks = reflection_blocks(problem, free)
        assert len(blocks) == 4
        basis = np.column_stack(dense_blocks(blocks, n))
        assert basis.shape == (n, n)
        np.testing.assert_allclose(basis.T @ basis, np.eye(n), rtol=0.0, atol=4e-16)
        for block, dense in zip(blocks, dense_blocks(blocks, n)):
            assert block.members.shape[1] == 4
            assert np.count_nonzero(dense, axis=0).max(initial=0) <= 4
            np.testing.assert_allclose(block.project(np.arange(n, dtype=float)),
                                       dense.T @ np.arange(n), rtol=0.0, atol=1e-12 * n)
        # the trivial block's columns are the orbit sums, each reflection fixes them
        images = problem.reflection_images if free is None else \
            np.searchsorted(free, problem.reflection_images[:, free])
        trivial = dense_blocks(blocks, n)[0]
        for image in images:
            np.testing.assert_array_equal(trivial[image], trivial)

    @pytest.mark.parametrize("m,p,q", [(1, 2, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2), (2, 3, 1)])
    def test_supernode_regions_have_the_one_identity_block(self, m, p, q):
        # the decoupled node is a supernode's corner: no reflection about it
        # maps the region onto itself
        problem = extract_local_supernode(m, p, q, 0.0)
        n = problem.target_pattern.n_entries
        assert problem.reflection_images is None
        (block,) = reflection_blocks(problem)
        np.testing.assert_array_equal(block.members, np.arange(n)[:, None])
        assert np.all(block.weights == 1.0) and np.all(block.norms == 1.0)

    def test_pins_that_split_an_orbit_leave_the_one_block(self):
        problem = extract_local_scalar(3, 0.0)
        n = problem.target_pattern.n_entries
        one = np.flatnonzero(problem.reflection_images[1] != np.arange(n))[:1]
        free = np.delete(np.arange(n), one)
        (block,) = reflection_blocks(problem, free)
        np.testing.assert_array_equal(block.members[:, 0], np.arange(n - 1))

    def test_project_and_expand_are_transposes(self):
        problem = extract_local_scalar(4, 2.0)
        n = problem.target_pattern.n_entries
        rng = np.random.default_rng(4)
        x = rng.standard_normal(n)
        for block in reflection_blocks(problem):
            c = rng.standard_normal(len(block))
            assert block.project(x) @ c == pytest.approx(x @ block.expand(c, n), rel=1e-13)


def invariant_matrix(problem, seed):
    """A random n_local x n_local matrix averaged over the reflections: K maps it onto itself."""
    x = np.random.default_rng(seed).standard_normal((problem.n_local,) * 2)
    return sum(x[np.ix_(perm, perm)] for perm in node_reflections(problem)) / 4


@pytest.fixture
def active_blocks(monkeypatch):
    """The scalar problems a test makes have node blocks at every size."""
    monkeypatch.setattr(lattice, "BLOCKS_MIN_NODES", 0)


class TestNodeBlocks:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_scalar_nodes_split_into_four_orthonormal_blocks(self, active_blocks, m):
        problem = extract_local_scalar(m, 0.0)
        n, n_i = problem.n_local, problem.n_interior
        perms = problem.node_reflections
        assert perms.shape == (4, n) and not perms.flags.writeable
        np.testing.assert_array_equal(perms, node_reflections(problem))
        nodes = problem.node_blocks
        assert len(nodes.blocks) == 4 and nodes.stack((problem.a_ll,)).shape[:2] == (1, 4)
        dense = dense_blocks(nodes.blocks, n)
        basis = np.column_stack(dense)
        assert basis.shape == (n, n)
        np.testing.assert_allclose(basis.T @ basis, np.eye(n), rtol=0.0, atol=4e-16)
        for block, interior, b, chi in zip(nodes.blocks, nodes.interior, dense, CHARACTERS):
            # the interior orbits come first, and span the interior's rows of the block
            assert np.all(block.members[:interior] < n_i)
            assert np.all(block.members[interior:] >= n_i)
            assert not b[n_i:, :interior].any() and not b[:n_i, interior:].any()
            for perm, sign in zip(node_reflections(problem), chi):  # P_g B_c = chi(g) B_c
                np.testing.assert_array_equal(b[perm], sign * b)
        # a node off the axes lies in four blocks, one on an axis in two, the decoupled node in one
        zero_coords = np.count_nonzero(problem.coords == 0, axis=1)
        np.testing.assert_array_equal(np.count_nonzero(basis, axis=1),
                                      np.array([4, 2, 1])[zero_coords])

    @pytest.mark.parametrize("m,p,q", [(1, 2, 1), (3, 2, 1), (2, 1, 2), (2, 3, 1), (2, 2, 2)])
    def test_supernode_regions_have_no_node_blocks(self, active_blocks, m, p, q):
        # at any size: their matrices are read in node coordinates, and the
        # free values' basis is the one identity block
        problem = extract_local_supernode(m, p, q, 0.0)
        assert problem.node_reflections is None
        assert problem.node_blocks is None and not problem.reflection_invariant((problem.a_ll,))
        n = problem.target_pattern.n_entries
        (block,) = reflection_blocks(problem)
        np.testing.assert_array_equal(block.members, np.arange(n)[:, None])
        x = np.random.default_rng(1).standard_normal((3, n))
        assert np.array_equal(block.expand(x, n), x)

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_stack_holds_the_blocks_of_invariant_matrices(self, active_blocks, m):
        # each matrix's blocks, one matrix at a time or several, and a
        # matrix of the interior rows alone as the n_local x n_local one
        # with zeros below them
        problem = extract_local_scalar(m, 2.0)
        nodes = problem.node_blocks
        n_i = problem.n_interior
        dense = dense_blocks(nodes.blocks, problem.n_local)
        n0 = max(map(len, nodes.blocks))
        x = invariant_matrix(problem, m)
        interior_rows = np.zeros_like(x)
        interior_rows[:n_i] = x[:n_i]
        stacked = nodes.stack((problem.a_ll, x, x[:n_i]))
        assert stacked.shape == (3, 4, n0, n0)
        for got, want in zip(stacked, (problem.a_ll, x, interior_rows)):
            np.testing.assert_array_equal(got, nodes.stack((want,))[0])
            for c, b in enumerate(dense):
                k = b.shape[1]
                np.testing.assert_allclose(got[c, :k, :k], b.T @ want @ b,
                                           rtol=0.0, atol=1e-15 * np.abs(want).max())
                assert not got[c, k:].any() and not got[c, :, k:].any()
        np.testing.assert_array_equal(nodes.a_ll, stacked[0])
        assert not nodes.a_ll.flags.writeable

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_matrices_the_reflections_move_are_not_stacked(self, active_blocks, m):
        # Rounding-level strays from invariance are stacked; a matrix that
        # strays further, by one entry, whole or in its interior rows, is
        # left to node coordinates, whatever the others in the call.  The
        # entry couples the decoupled node to (1, 0), which Fx moves and Fy
        # fixes, or to (0, 1), which Fy moves and Fx fixes.
        problem = extract_local_scalar(m, 0.0)
        nodes, invariant = problem.node_blocks, problem.reflection_invariant
        assert nodes.invariant is invariant
        n_i = problem.n_interior
        x = invariant_matrix(problem, m)
        coords = problem.coords.tolist()
        bumps = []
        for axis_node in ([1, 0], [0, 1]):
            bump = np.zeros_like(x)
            bump[coords.index([0, 0]), coords.index(axis_node)] = np.abs(x).max()
            bumps.append(bump)
        bump = bumps[0]
        assert invariant((x, x[:n_i], x + 1e-3 * INVARIANCE_TOL * bump))
        assert nodes.stack((x, x + 1e-3 * INVARIANCE_TOL * bump)) is not None
        random = np.random.default_rng(m).standard_normal(x.shape)
        for moved in (*(x + 1e4 * INVARIANCE_TOL * b for b in bumps), x + bump, random,
                      random[:n_i]):
            assert not invariant((x, moved)) and not invariant((moved,))
            assert nodes.stack((x, moved)) is None
        # the tolerance scales with the largest of the matrices
        assert invariant((1e8 * x, x + 1e4 * INVARIANCE_TOL * bump))
        assert invariant((np.zeros_like(x),))

    @pytest.mark.parametrize("m", range(1, 11))
    def test_blocks_exist_from_the_fewest_nodes(self, m):
        # Scalar regions from BLOCKS_MIN_NODES nodes (m = 6, 85 nodes) have
        # the four blocks, which stack their matrices; smaller ones have
        # none.  Every scalar region has the invariance check, made once.
        problem = extract_local_scalar(m, 0.0)
        nodes = problem.node_blocks
        assert (nodes is not None) == (problem.n_local >= BLOCKS_MIN_NODES) == (m >= 6)
        invariant = problem.reflection_invariant
        assert invariant is problem.reflection_invariant and invariant((problem.a_ll,))
        if nodes is not None:
            assert len(nodes.blocks) == 4 and nodes.invariant is invariant
            np.testing.assert_array_equal(nodes.stack((problem.a_ll,))[0], nodes.a_ll)

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_block_expand_applies_the_basis_to_rows(self, active_blocks, m):
        # B c of each row of a stack, over all the block's columns or its
        # first ones: the interior orbits' columns reach the interior nodes alone
        problem = extract_local_scalar(m, 0.0)
        nodes = problem.node_blocks
        n, n_i = problem.n_local, problem.n_interior
        rng = np.random.default_rng(m)
        for block, interior, b in zip(nodes.blocks, nodes.interior,
                                      dense_blocks(nodes.blocks, n)):
            v = rng.standard_normal((3, b.shape[1]))
            np.testing.assert_array_equal(block.expand(v, n), v @ b.T)
            for row, want in zip(v, v @ b.T):
                np.testing.assert_array_equal(block.expand(row, n), want)
            np.testing.assert_array_equal(block.expand(v[:, :interior], n_i),
                                          v[:, :interior] @ b[:n_i, :interior].T)