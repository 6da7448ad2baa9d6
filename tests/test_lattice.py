import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecoarsen.lattice import (
    SparsityPattern,
    StencilSpec,
    build_helmholtz,
    checkerboard_diagonal,
    decoupled_pattern,
    extract_local_scalar,
    extract_local_supernode,
    supernode_layout,
)


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

    def test_layout_adjacency_is_grid(self):
        layout = supernode_layout(2, 2, 3)
        coord_of = {k: c for k, c in enumerate(layout.supernode_coords)}
        for a, b in layout.adjacency:
            ca, cb = coord_of[a], coord_of[b]
            assert abs(ca[0] - cb[0]) + abs(ca[1] - cb[1]) == 1
        # every grid-adjacent pair inside the diamond appears
        ids = {c: k for k, c in coord_of.items()}
        for (sx, sy), k in ids.items():
            for nb in ((sx + 1, sy), (sx, sy + 1)):
                if nb in ids:
                    pair = (min(k, ids[nb]), max(k, ids[nb]))
                    assert pair in layout.adjacency

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

    def test_supernode_members_share_connections(self):
        # any two nodes of adjacent supernodes are pattern-coupled
        prob = extract_local_supernode(2, 2, 1, 0.0)
        layout = supernode_layout(2, 2, 1)
        c = prob.decoupled
        for a, b in layout.adjacency:
            for u in layout.node_ids[a]:
                for v in layout.node_ids[b]:
                    if c in (u, v):
                        continue
                    assert (u, v) in prob.target_pattern

    def test_decoupled_row_pattern(self):
        prob = extract_local_supernode(1, 2, 1, 0.0)
        c = prob.decoupled
        assert c == 0 and tuple(prob.coords[c]) == (0, 0)
        assert (c, c) in prob.target_pattern
        assert all((c, j) not in prob.target_pattern for j in range(1, prob.n_local))
