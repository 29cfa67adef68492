import math

import numpy as np
import pytest
import scipy.sparse as sp

from cginvert.errors import DataError, NumericalError
from cginvert.imageio import read_pgm, write_pgm
from cginvert.sensing import (
    SensingModel,
    build_dct,
    build_gaussian,
    build_radon,
    measure,
)

ORACLE_SIZES = [(1, 1), (5, 2), (6, 4), (8, 6), (9, 8), (13, 7), (16, 5),
               (32, 15)]


def ray_box_length(theta, t, x0, x1, y0, y1):
    """Independent Liang-Barsky clip of one ray against one box."""
    c, s = math.cos(theta), math.sin(theta)
    lo, hi = -np.inf, np.inf
    if s != 0.0:
        a, b = (t * c - x0) / s, (t * c - x1) / s
        lo, hi = max(lo, min(a, b)), min(hi, max(a, b))
    elif not (x0 <= t * c <= x1):
        return 0.0
    if c != 0.0:
        a, b = (y0 - t * s) / c, (y1 - t * s) / c
        lo, hi = max(lo, min(a, b)), min(hi, max(a, b))
    elif not (y0 <= t * s <= y1):
        return 0.0
    return max(0.0, hi - lo)


def radon_offsets(side):
    n_det = math.ceil(math.sqrt(2.0) * side)
    return n_det, (np.arange(n_det) + 0.5) - n_det / 2.0


class TestRadon:
    def test_dimension_anchor_32x15(self):
        model = build_radon(32, 15)
        assert model.m == 690
        assert model.n == 1024

    def test_row_count_formula(self):
        for side in (1, 2, 3, 5, 8, 13, 16):
            for n_angles in (1, 2, 7, 11):
                model = build_radon(side, n_angles)
                assert model.m == n_angles * math.ceil(math.sqrt(2.0) * side)
                assert model.n == side * side

    def test_weights_nonnegative_and_bounded(self):
        model = build_radon(9, 8)
        w = model.psi.tocoo().data
        assert np.all(w >= 0.0)
        assert np.all(w <= 2.0)  # sqrt(2) * pixel diagonal for unit pixels

    def test_single_angle_row_sums_match_chord_lengths(self):
        side = 32
        model = build_radon(side, 1)
        assert model.m == 46
        n_det, offsets = radon_offsets(side)
        h = side / 2.0
        sums = np.asarray(model.psi.sum(axis=1)).ravel()
        for d in range(n_det):
            chord = ray_box_length(0.0, offsets[d], -h, h, -h, h)
            assert sums[d] == pytest.approx(chord, abs=1e-12)

    def test_weights_match_per_pixel_clipping_oracle(self):
        # side 8 keeps detector offsets at half-integers (pixel centers at
        # axis-aligned angles), so no ray lies exactly on a pixel boundary
        # and the closed-box oracle is unambiguous
        side, n_angles = 8, 5
        model = build_radon(side, n_angles)
        dense = model.psi.toarray()
        n_det, offsets = radon_offsets(side)
        h = side / 2.0
        for i in range(n_angles):
            theta = i * math.pi / n_angles
            for d in range(n_det):
                row = dense[i * n_det + d]
                for pix in range(side * side):
                    r, c = divmod(pix, side)
                    x0, x1 = c - h, c + 1 - h
                    y1, y0 = h - r, h - r - 1
                    expect = ray_box_length(theta, offsets[d], x0, x1, y0, y1)
                    assert row[pix] == pytest.approx(expect, abs=1e-12)

    def test_row_sums_match_chords_for_boundary_aligned_rays(self):
        # side 6 has integer detector offsets: rays lie on pixel boundaries
        # at 0 degrees; each boundary ray's weight goes to one column but
        # row sums still equal the chord length through the grid
        side = 6
        model = build_radon(side, 4)
        n_det, offsets = radon_offsets(side)
        h = side / 2.0
        sums = np.asarray(model.psi.sum(axis=1)).ravel()
        for i in range(4):
            theta = i * math.pi / 4
            for d in range(n_det):
                if theta in (0.0, math.pi / 2) and abs(abs(offsets[d]) - h) < 1e-12:
                    continue  # ray on the outer edge: measure-zero convention
                chord = ray_box_length(theta, offsets[d], -h, h, -h, h)
                assert sums[i * n_det + d] == pytest.approx(chord, abs=1e-10)

    def test_sparse_storage(self):
        assert sp.issparse(build_radon(8, 3).psi)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_radon(0, 4)
        with pytest.raises(ValueError):
            build_radon(4, 0)


class TestGaussian:
    def test_shape_and_determinism(self):
        a = build_gaussian(512, 1024, seed=7)
        b = build_gaussian(512, 1024, seed=7)
        assert a.psi.shape == (512, 1024)
        assert np.array_equal(a.psi, b.psi)

    def test_mean_law_of_large_numbers(self):
        model = build_gaussian(512, 1024, seed=7)
        assert abs(model.psi.mean()) < 3.0 / math.sqrt(512 * 1024)

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            build_gaussian(20, 10, seed=0)
        with pytest.raises(ValueError):
            build_gaussian(0, 10, seed=0)

    def test_sampling_ratio(self):
        model = build_gaussian(102, 1024, seed=0)
        assert model.meta["ratio"] == pytest.approx(0.1, abs=0.005)


class TestDct:
    @pytest.mark.parametrize("side", [2, 3, 4, 8, 16])
    def test_orthonormality(self, side):
        phi = build_dct(side * side)
        err = np.abs(phi.T @ phi - np.eye(side * side)).max()
        assert err < 1e-10

    def test_dc_column(self):
        phi = build_dct(4)
        assert np.allclose(phi[:, 0], 0.5, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        phi = build_dct(16)
        c = rng.standard_normal(16)
        assert np.abs(phi @ (phi.T @ c) - c).max() < 1e-10

    def test_non_square_error(self):
        with pytest.raises(ValueError):
            build_dct(12)


class TestMeasure:
    def setup_method(self):
        self.model = build_gaussian(8, 12, seed=1)
        self.c = np.random.default_rng(2).standard_normal(12)

    def test_noiseless_marker(self):
        meas = measure(self.model, self.c, np.inf)
        assert np.array_equal(meas, self.model.apply(self.c))

    @pytest.mark.parametrize("snr", [np.nan, -np.inf])
    def test_snr_must_be_a_number_or_plus_inf(self, snr):
        with pytest.raises(ValueError, match="snr_db"):
            measure(self.model, self.c, snr)

    def test_overflowing_signal_raises(self):
        with pytest.raises(NumericalError, match="A c"), np.errstate(over="ignore"):
            measure(self.model, 1e160 * self.c, 60.0)

    def test_overflowing_noise_raises(self):
        # 10^(-7000/20) underflows to 0, so the noise scale is infinite
        with pytest.raises(NumericalError, match="not finite"), \
                np.errstate(divide="ignore"):
            measure(self.model, self.c, -7000.0)

    def test_overflowing_snr_raises(self):
        # 10^(1e308/20) overflows; the noise would be scaled by 1/inf
        with pytest.raises(NumericalError, match="overflows at 1e\\+308 dB"):
            measure(self.model, self.c, 1e308)

    def test_snr_rescaling_identity(self):
        meas = measure(self.model, self.c, 60.0, seed=5)
        clean = self.model.apply(self.c)
        ratio = np.sum((meas - clean) ** 2) / np.sum(clean ** 2)
        assert ratio == pytest.approx(1e-6, rel=1e-12)

    def test_realized_snr_exact(self):
        for snr in (5.0, 20.0, 40.0, 60.0):
            meas = measure(self.model, self.c, snr, seed=9)
            clean = self.model.apply(self.c)
            realized = 10.0 * np.log10(
                np.sum(clean ** 2) / np.sum((meas - clean) ** 2))
            assert realized == pytest.approx(snr, abs=1e-6)

    def test_determinism(self):
        a = measure(self.model, self.c, 30.0, seed=4)
        b = measure(self.model, self.c, 30.0, seed=4)
        assert np.array_equal(a, b)

    def test_zero_signal_error(self):
        with pytest.raises(DataError):
            measure(self.model, np.zeros(12), 30.0)


class TestApplyAdjoint:
    def test_zero_maps_to_zero(self):
        model = build_gaussian(6, 9, seed=0)
        assert np.all(model.apply(np.zeros(9)) == 0.0)
        assert np.all(model.adjoint(np.zeros(6)) == 0.0)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(11)
        for model in (build_gaussian(6, 9, seed=0), build_radon(4, 5),
                      SensingModel(rng.standard_normal((5, 9)), phi=build_dct(9))):
            for _ in range(100):
                x = rng.standard_normal(model.n)
                w = rng.standard_normal(model.m)
                lhs = float(model.apply(x) @ w)
                rhs = float(x @ model.adjoint(w))
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_identity_operator(self):
        model = SensingModel(np.eye(9), phi=None)
        x = np.random.default_rng(0).standard_normal(9)
        assert np.array_equal(model.apply(x), x)

    def test_dimension_mismatch(self):
        model = build_gaussian(6, 9, seed=0)
        with pytest.raises(ValueError):
            model.apply(np.zeros(5))
        with pytest.raises(ValueError):
            model.adjoint(np.zeros(9))

    def test_spectral_norm_estimate_within_1pct(self):
        for model in (build_radon(8, 5), build_gaussian(6, 9, seed=2)):
            a = model.dense_a()
            smax = np.linalg.svd(a, compute_uv=False)[0]
            assert abs(model.a_norm - smax) <= 0.01 * smax


class TestIO:
    def test_pgm_round_trip_binary(self, tmp_path):
        rng = np.random.default_rng(1)
        img = np.round(rng.uniform(0, 1, (5, 7)) * 255) / 255.0
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == (5, 7)
        assert np.abs(back - img).max() < 1e-12

    def test_pgm_comment_handling(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2\n255\n0 128 255 64\n")
        img = read_pgm(path)
        assert img.shape == (2, 2)
        assert img[0, 1] == pytest.approx(128 / 255)


class TestComposition:
    def test_composed_operator_shape(self):
        model = SensingModel(build_gaussian(5, 16, seed=0).psi, phi=build_dct(16))
        assert model.dense_a().shape == (5, 16)
        x = np.random.default_rng(1).standard_normal(16)
        assert model.apply(x) == pytest.approx(model.dense_a() @ x, rel=1e-12)

    def test_identity_phi_marker_applies_psi_exactly(self):
        psi = build_gaussian(5, 9, seed=3).psi
        model = SensingModel(psi, phi=None)
        c = np.random.default_rng(2).standard_normal(9)
        assert np.array_equal(model.apply(c), psi @ c)

    def test_row_count_at_90_angles(self):
        model = build_radon(4, 90)
        assert model.m == 90 * math.ceil(math.sqrt(2.0) * 4)


def mapped_gram(model, w):
    """I + Psi Diag(w) Psi^T on Psi's live rows as the Woodbury u-update
    forms it: lower triangle only, at column-major positions, so its
    transpose is the matrix."""
    live, gram = model.gram_map()
    r = live.size
    return (gram @ np.append(w, 1.0)).reshape(r, r).T


def live_rows(psi):
    """Rows of a CSR matrix with at least one stored entry."""
    return np.flatnonzero(np.diff(psi.indptr))


# column 1 is empty, column 4 has one nonzero; rows list their columns out
# of order and row 2 repeats column 0
IRREGULAR = sp.csr_matrix(
    ([1.5, -2.0, 0.5, 3.0, 1.0, 0.25, -1.25, 2.0, 0.75, -0.5],
     [5, 0, 2, 3, 0, 0, 4, 0, 5, 2], [0, 3, 5, 8, 10]), shape=(4, 6))

# rows 1 and 3 store nothing and drop out; row 2 stores one explicit zero,
# which counts as an entry and keeps it
SPARSE_ROWS = sp.csr_matrix(([2.0, -1.0, 0.0, 0.5, 1.5],
                             [0, 2, 1, 2, 3], [0, 2, 2, 3, 3, 5]),
                            shape=(5, 4))


class TestGramMap:
    @staticmethod
    def assert_maps_lower_gram(model, seed):
        w = np.random.default_rng(seed).uniform(0.1, 3.0, model.n)
        live, gram = model.gram_map()
        assert np.array_equal(live, live_rows(model.psi))
        psi = model.psi.toarray()[live]
        lower = np.tril((psi * w[None, :]) @ psi.T)
        assert gram.shape == (live.size ** 2, model.n + 1)
        assert np.all(gram.indices // live.size <= gram.indices % live.size)
        got = mapped_gram(model, w)
        assert (np.linalg.norm(got - lower - np.eye(live.size))
                <= 1e-14 * np.linalg.norm(lower))

    @pytest.mark.parametrize("side,angles", [(32, 15), (16, 5), (6, 3)])
    def test_radon_lower_triangle_matches_dense_product(self, side, angles):
        self.assert_maps_lower_gram(build_radon(side, angles), side)

    def test_radon_paper_operator_drops_its_empty_detector_rows(self):
        model = build_radon(32, 15)
        live, _ = model.gram_map()
        assert (model.m, model.m - live.size) == (690, 78)
        psi = model.psi.toarray()
        assert not psi[np.setdiff1d(np.arange(model.m), live)].any()

    def test_irregular_csr_matches_dense_product(self):
        assert not IRREGULAR.has_sorted_indices
        self.assert_maps_lower_gram(SensingModel(IRREGULAR), 1)

    def test_csr_without_empty_rows_keeps_every_row(self):
        model = SensingModel(IRREGULAR)
        assert np.array_equal(model.gram_map()[0], np.arange(model.m))

    def test_empty_and_explicit_zero_rows(self):
        model = SensingModel(SPARSE_ROWS)
        assert np.array_equal(model.gram_map()[0], [0, 2, 4])
        self.assert_maps_lower_gram(model, 2)

    def test_second_call_returns_cached_map(self):
        model = build_radon(6, 3)
        assert model.gram_map() is model.gram_map()


def reference_ray_weights(side, theta, t):
    """Intersection lengths of one ray with every pixel, one ray at a time:
    the per-ray construction the vectorized tracer replaced.  Returns
    (pixel_idx, weights) in increasing s along the ray."""
    h = side / 2.0
    c, s0 = math.cos(theta), math.sin(theta)
    empty = np.empty(0, dtype=np.int64), np.empty(0)
    lo, hi = -np.inf, np.inf
    if s0 != 0.0:
        s_a = (t * c - (-h)) / s0
        s_b = (t * c - h) / s0
        lo, hi = max(lo, min(s_a, s_b)), min(hi, max(s_a, s_b))
    elif not (-h <= t * c <= h):
        return empty
    if c != 0.0:
        s_a = ((-h) - t * s0) / c
        s_b = (h - t * s0) / c
        lo, hi = max(lo, min(s_a, s_b)), min(hi, max(s_a, s_b))
    elif not (-h <= t * s0 <= h):
        return empty
    if not (lo < hi) or not np.isfinite(lo) or not np.isfinite(hi):
        return empty
    lines = np.arange(side + 1) - h
    crossings = [np.array([lo, hi])]
    if s0 != 0.0:
        crossings.append((t * c - lines) / s0)
    if c != 0.0:
        crossings.append((lines - t * s0) / c)
    svals = np.concatenate(crossings)
    svals = np.unique(svals[(svals >= lo) & (svals <= hi)])
    if svals.size < 2:
        return empty
    mids = 0.5 * (svals[1:] + svals[:-1])
    seglen = np.diff(svals)
    cols = np.floor(t * c - mids * s0 + h).astype(np.int64)
    rows = np.floor(h - (t * s0 + mids * c)).astype(np.int64)
    keep = ((seglen > 1e-12) & (cols >= 0) & (cols < side)
            & (rows >= 0) & (rows < side))
    return rows[keep] * side + cols[keep], seglen[keep]


def reference_radon_psi(side, n_angles):
    """Psi of build_radon assembled ray by ray from the reference weights."""
    n_det, offsets = radon_offsets(side)
    rows, cols, vals = [np.empty(0, dtype=np.int64)], \
        [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for i in range(n_angles):
        for d in range(n_det):
            idx, w = reference_ray_weights(side, i * math.pi / n_angles,
                                           offsets[d])
            rows.append(np.full(idx.size, i * n_det + d, dtype=np.int64))
            cols.append(idx)
            vals.append(w)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_angles * n_det, side * side), dtype=np.float64)


def column_pairs(psi):
    """Psi in canonical CSC form, and every pair (first, second) of stored
    entries of one column with second's row no larger than first's: each
    entry paired with itself and those above it; pixel holds the pairs'
    column."""
    csc = psi.tocsc(copy=True)
    csc.sum_duplicates()
    counts = np.diff(csc.indptr)
    start = np.repeat(csc.indptr[:-1], counts)
    reps = np.arange(csc.nnz) - start + 1
    first = np.repeat(np.arange(csc.nnz), reps)
    second = (np.arange(first.size) + start[first]
              - np.repeat(np.cumsum(reps) - reps, reps))
    pixel = np.repeat(np.arange(psi.shape[1]), counts)[first]
    return csc, first, second, pixel


def reference_gram_map(psi, m, n):
    """gram_map built with sorts: np.unique for the live rows and a
    COO-to-CSC conversion, which sorts each column's rows, for gram."""
    csc, first, second, pixel = column_pairs(psi)
    live, rows = np.unique(csc.indices, return_inverse=True)
    r = live.size
    gram = sp.coo_matrix(
        (np.concatenate((csc.data[first] * csc.data[second], np.ones(r))),
         (np.concatenate((rows[second] * r + rows[first], np.arange(r) * (r + 1))),
          np.concatenate((pixel, np.full(r, n))))),
        shape=(r * r, n + 1)).tocsc()
    return live, gram


def assert_same_csr(got, expect):
    """Equal shape, and byte-equal index and value arrays."""
    assert got.shape == expect.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestVectorizedConstruction:
    @pytest.mark.parametrize("side,angles", ORACLE_SIZES)
    def test_radon_psi_is_byte_equal_to_the_per_ray_build(self, side, angles):
        model = build_radon(side, angles)
        expect = reference_radon_psi(side, angles)
        assert_same_csr(model.psi, expect)
        assert model.a_norm == SensingModel(expect).a_norm

    @staticmethod
    def assert_same_gram_map(model):
        live, gram = model.gram_map()
        r_live, r_gram = reference_gram_map(model.psi, model.m, model.n)
        assert np.array_equal(live, r_live)
        assert gram.format == r_gram.format == "csc"
        assert_same_csr(gram, r_gram)

    @pytest.mark.parametrize("side,angles", ORACLE_SIZES)
    def test_radon_gram_map_matches_the_sorted_build(self, side, angles):
        self.assert_same_gram_map(build_radon(side, angles))

    def test_gram_map_with_empty_rows_and_duplicate_entries(self):
        # rows 1 and 4 store nothing; (0, 2) and (3, 1) are each stored twice
        psi = sp.csr_matrix(
            ([1.0, 2.0, -0.5, 3.0, 0.25, 1.5, -1.0, 0.75, 2.5],
             [2, 0, 2, 1, 1, 3, 1, 0, 3], [0, 3, 3, 4, 7, 7, 9]),
            shape=(6, 4))
        assert psi.nnz == 9 and not psi.has_canonical_format
        model = SensingModel(psi)
        self.assert_same_gram_map(model)
        assert np.array_equal(model.gram_map()[0], [0, 2, 3, 5])
