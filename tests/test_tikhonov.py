import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from cginvert import covariance, gcgls, tikhonov
from cginvert.covariance import KINDS, CovarianceParam
from cginvert.data_metrics import gen_dataset
from cginvert.drcgnet import (NetConfig, TrainConfig, backward, forward,
                              init_params, train)
from cginvert.errors import DivergenceError
from cginvert.regularizer import ScaleRegularizer, cost, data_misfit
from cginvert.sensing import SensingModel, build_radon
from cginvert.tikhonov import (
    _tikhonov_direct_with_factor,
    _tikhonov_woodbury_with_factor,
    NagdConfig,
    estimate_u_lipschitz,
    grad_u,
    tikhonov_adjoint,
    tikhonov_factored,
    tikhonov_nagd,
)
from test_sensing import IRREGULAR, SPARSE_ROWS, column_pairs, mapped_gram


def random_cov(kind, n, rng, scale=1.0):
    if kind == "scaled_identity":
        return CovarianceParam.scaled_identity(n, scale * rng.uniform(0.5, 2.0))
    if kind == "diagonal":
        return CovarianceParam.diagonal(n, scale * rng.uniform(0.5, 2.0, n))
    if kind == "tridiagonal":
        return CovarianceParam.tridiagonal(
            n, rng.uniform(0.5, 1.5, n) * math.sqrt(scale),
            rng.uniform(-0.3, 0.3, n - 1) * math.sqrt(scale))
    tril = rng.standard_normal(n * (n + 1) // 2) * 0.3 * math.sqrt(scale)
    tril[np.cumsum(np.arange(1, n + 1)) - 1] += math.sqrt(scale)
    return CovarianceParam.full(n, tril)


def u_objective(u, z, model, y, p):
    """0.5*||A_z u - y||^2 + 0.5*u^T P^{-1} u (the u-dependent part of F)."""
    return data_misfit(z, u, model, y) + 0.5 * p.quad_inv(u)


def make_instance(m, n, seed, cov_kind="scaled_identity"):
    rng = np.random.default_rng(seed)
    model = SensingModel(rng.standard_normal((m, n)) / math.sqrt(n))
    y = rng.standard_normal(m)
    z = rng.uniform(0.2, 2.0, n)
    p = random_cov(cov_kind, n, rng)
    return model, y, z, p


class TestCovariance:
    def test_materialized_formulas(self):
        n = 5
        rng = np.random.default_rng(0)
        lam = 0.7
        p = CovarianceParam.scaled_identity(n, lam, eps=1e-4)
        assert np.array_equal(p.materialize(), lam * np.eye(n))
        diag = rng.uniform(-1, 2, n)
        p = CovarianceParam.diagonal(n, diag, eps=1e-4)
        assert np.array_equal(p.materialize(), np.diag(np.maximum(diag, 1e-4)))
        d1, d2 = rng.standard_normal(n), rng.standard_normal(n - 1)
        p = CovarianceParam.tridiagonal(n, d1, d2, eps=1e-4)
        L = np.diag(d1) + np.diag(d2, -1)
        assert np.allclose(p.materialize(), L @ L.T + 1e-4 * np.eye(n), atol=0)
        tril = rng.standard_normal(n * (n + 1) // 2)
        p = CovarianceParam.full(n, tril, eps=1e-4)
        L = np.zeros((n, n))
        L[np.tril_indices(n)] = tril
        assert np.allclose(p.materialize(), L @ L.T + 1e-4 * np.eye(n), atol=0)

    @pytest.mark.parametrize("kind", ["scaled_identity", "diagonal",
                                      "tridiagonal", "full"])
    @pytest.mark.parametrize("n", [2, 7, 33, 64])
    def test_eigenvalue_floor(self, kind, n):
        rng = np.random.default_rng(n)
        if kind == "scaled_identity":
            p = CovarianceParam.scaled_identity(n, rng.uniform(-2, 2), eps=1e-4)
        elif kind == "diagonal":
            p = CovarianceParam.diagonal(n, rng.uniform(-2, 2, n), eps=1e-4)
        elif kind == "tridiagonal":
            p = CovarianceParam.tridiagonal(n, rng.standard_normal(n),
                                            rng.standard_normal(n - 1), eps=1e-4)
        else:
            p = CovarianceParam.full(n, rng.standard_normal(n * (n + 1) // 2),
                                     eps=1e-4)
        w = np.linalg.eigvalsh(p.materialize())
        assert w.min() >= 1e-4 - 1e-12

    def test_solve_and_quad_consistency(self):
        rng = np.random.default_rng(1)
        for kind in ("scaled_identity", "diagonal", "tridiagonal", "full"):
            p = random_cov(kind, 6, rng)
            x = rng.standard_normal(6)
            dense = p.materialize()
            assert p.apply(x) == pytest.approx(dense @ x, rel=1e-12)
            assert p.solve(x) == pytest.approx(np.linalg.solve(dense, x), rel=1e-9)
            assert p.quad_inv(x) == pytest.approx(
                x @ np.linalg.solve(dense, x), rel=1e-9)

    def test_init_default_realizes_exact_diagonal(self):
        for kind in ("scaled_identity", "diagonal", "tridiagonal", "full"):
            p = CovarianceParam.init_default(kind, 5, 0.1, eps=1e-4)
            assert np.allclose(p.materialize(), 0.1 * np.eye(5), atol=1e-15)

    # entries at or below the floor eps = 1e-4 hold P constant, so their
    # gradient is exactly 0; tridiagonal and full have no floored entries
    @pytest.mark.parametrize("kind,arrays", [
        ("scaled_identity", {"cov.lam": [0.7]}),
        ("scaled_identity", {"cov.lam": [1e-4]}),
        ("scaled_identity", {"cov.lam": [-0.3]}),
        ("diagonal", {"cov.diag": [0.7, 1e-4, 5e-5, -1.0, 1.3]}),
        ("tridiagonal", {"cov.d1": [0.9, -0.4, 1.2, 0.3, -1.1],
                         "cov.d2": [0.5, -0.8, 0.2, 1.4]}),
        ("full", {"cov.L": np.linspace(-1.3, 1.1, 15)}),
    ], ids=["lam", "lam-at-eps", "lam-below-eps", "diagonal", "tridiagonal", "full"])
    def test_outer_grad_matches_central_differences(self, kind, arrays):
        n, eps, scale, h = 5, 1e-4, -0.7, 1e-6
        rng = np.random.default_rng(12)
        x, v = rng.standard_normal(n), rng.standard_normal(n)
        p = CovarianceParam(kind, n, arrays, eps)
        grads = p.outer_grad(x, v, scale)
        assert list(grads) == list(p.arrays)

        def pairing(name, i, step):
            moved = dict(p.arrays)
            moved[name] = p.arrays[name].copy()
            moved[name][i] += step
            return scale * float(x @ CovarianceParam(kind, n, moved, eps).apply(v))

        for name, base in p.arrays.items():
            fd = np.array([(pairing(name, i, h) - pairing(name, i, -h)) / (2 * h)
                           for i in range(base.size)])
            clamped = kind in ("scaled_identity", "diagonal")
            floored = (base <= eps) & clamped
            assert np.all(grads[name][floored] == 0.0)
            assert np.all(fd[(base < eps - h) & clamped] == 0.0)
            assert grads[name][~floored] == pytest.approx(fd[~floored],
                                                          rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_floor_that_is_not_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="eps"):
            CovarianceParam.scaled_identity(4, 1.0, eps=eps)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_init_default_rejects_non_finite_value(self, value):
        for kind in KINDS:
            with pytest.raises(ValueError, match="finite"):
                CovarianceParam.init_default(kind, 4, value)

    # the dense kinds factor and solve P with the u-update's helpers: the
    # factor is cho_factor's bits, a vector solve vector_solve's bits and
    # within VECTOR_SOLVE_RTOL of cho_solve's, and the identity right-hand
    # side of add_inverse_to cho_solve's bits.  n = 1 makes materialize()
    # Fortran-ordered too; n = 100 takes the dtrsv pair.
    @pytest.mark.parametrize("kind", ["tridiagonal", "full"])
    @pytest.mark.parametrize("n", [1, 7, 33, 100])
    def test_dense_factor_and_solves_equal_scipy(self, kind, n):
        rng = np.random.default_rng(n)
        p = random_cov(kind, n, rng)
        dense = p.materialize().copy()
        x, g = rng.standard_normal(n), rng.standard_normal((n, n))
        cho = sla.cho_factor(dense, lower=True)
        assert np.array_equal(p._chofac(), cho[0])
        assert np.array_equal(p.solve(x), vector_solve(cho[0], x))
        assert_close_rel(p.solve(x), sla.cho_solve(cho, x))
        assert p.quad_inv(x) == float(x @ vector_solve(cho[0], x))
        assert np.array_equal(p.add_inverse_to(g.copy()),
                              g + sla.cho_solve(cho, np.eye(n)))
        assert np.array_equal(p.materialize(), dense)  # not factored over

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("kind", ["tridiagonal", "full"])
    def test_dense_breakdown_names_p(self, kind):
        # entries of 1e160 overflow L L^T
        p = random_cov(kind, 5, np.random.default_rng(0))
        p = CovarianceParam(kind, 5, {k: 1e160 * a for k, a in p.arrays.items()})
        with pytest.raises(np.linalg.LinAlgError) as info:
            p.solve(np.ones(5))
        assert str(info.value) == "covariance P has non-finite entries"
        with pytest.raises(np.linalg.LinAlgError) as info:
            p.add_inverse_to(np.zeros((5, 5)))
        assert str(info.value) == "covariance P has non-finite entries"
        p = random_cov(kind, 5, np.random.default_rng(0))
        with pytest.raises(np.linalg.LinAlgError) as info:
            p.solve(np.array([1.0, np.nan, 0.0, 0.0, 0.0]))
        assert str(info.value) == \
            "covariance P right-hand side has non-finite entries"

    def test_not_positive_definite_names_p(self):
        with pytest.raises(np.linalg.LinAlgError) as info:
            tikhonov._factor(np.asfortranarray([[1.0, 2.0], [2.0, 1.0]]),
                             name="covariance P")
        assert str(info.value) == \
            "covariance P is not positive definite (2-th leading minor)"


class TestExactSolve:
    def test_zero_scales_give_zero(self):
        model, y, _, p = make_instance(4, 7, 0)
        u = _tikhonov_direct_with_factor(np.zeros(7), model, y, p)[0]
        assert u == pytest.approx(np.zeros(7), abs=1e-14)

    def test_identity_halves_measurements(self):
        model = SensingModel(np.eye(6))
        y = np.random.default_rng(1).standard_normal(6)
        p = CovarianceParam.scaled_identity(6, 1.0)
        u = _tikhonov_direct_with_factor(np.ones(6), model, y, p)[0]
        assert u == pytest.approx(y / 2.0, rel=1e-12)

    def test_against_stacked_least_squares_oracle(self):
        model, y, z, p = make_instance(8, 12, 2, "tridiagonal")
        u = _tikhonov_direct_with_factor(z, model, y, p)[0]
        # independent route: augmented least squares with a P^{-1/2} block
        az = model.dense_a() * z[None, :]
        w, v = np.linalg.eigh(p.materialize())
        p_inv_half = v @ np.diag(w ** -0.5) @ v.T
        big = np.vstack([az, p_inv_half])
        rhs = np.concatenate([y, np.zeros(12)])
        expect = np.linalg.lstsq(big, rhs, rcond=None)[0]
        assert np.linalg.norm(u - expect) <= 1e-9 * np.linalg.norm(expect)

    def test_residual_bound(self):
        model, y, z, p = make_instance(9, 6, 3)
        u = _tikhonov_direct_with_factor(z, model, y, p)[0]
        az = model.dense_a() * z[None, :]
        g = az.T @ az + np.linalg.inv(p.materialize())
        rhs = az.T @ y
        assert np.linalg.norm(g @ u - rhs) < 1e-8 * np.linalg.norm(rhs)

    def test_unique_minimizer(self):
        model, y, z, p = make_instance(5, 8, 4)
        rng = np.random.default_rng(5)
        u_star = _tikhonov_direct_with_factor(z, model, y, p)[0]
        f_star = u_objective(u_star, z, model, y, p)
        for _ in range(100):
            delta = rng.standard_normal(8) * rng.uniform(1e-4, 1.0)
            assert u_objective(u_star + delta, z, model, y, p) >= f_star


class TestWoodbury:
    @pytest.mark.parametrize("kind", ["scaled_identity", "diagonal",
                                      "tridiagonal", "full"])
    def test_matches_exact(self, kind):
        for seed in range(25):
            model, y, z, p = make_instance(6, 14, 100 + seed, kind)
            ue = _tikhonov_direct_with_factor(z, model, y, p)[0]
            uw = _tikhonov_woodbury_with_factor(z, model, y, p)[0]
            assert np.linalg.norm(ue - uw) <= 1e-8 * max(np.linalg.norm(ue), 1e-30)

    def test_scalar_measurement(self):
        rng = np.random.default_rng(6)
        model = SensingModel(rng.standard_normal((1, 5)))
        y = rng.standard_normal(1)
        z = rng.uniform(0.5, 1.5, 5)
        p = CovarianceParam.scaled_identity(5, 0.8)
        a_row = model.dense_a().ravel() * z
        expect = 0.8 * a_row * y[0] / (1.0 + 0.8 * float(a_row @ a_row))
        u = _tikhonov_woodbury_with_factor(z, model, y, p)[0]
        assert u == pytest.approx(expect.ravel(), rel=1e-12)

    def test_zero_scales(self):
        model, y, _, p = make_instance(4, 7, 7)
        u = _tikhonov_woodbury_with_factor(np.zeros(7), model, y, p)[0]
        assert u == pytest.approx(np.zeros(7), abs=1e-14)

    @pytest.mark.parametrize("kind", KINDS)
    def test_sparse_radon_matches_exact(self, kind):
        # m=115 < n=256; the diagonal kinds form the system from sparse Psi
        model = build_radon(16, 5)
        rng = np.random.default_rng(KINDS.index(kind))
        y = rng.standard_normal(model.m)
        z = rng.uniform(0.2, 2.0, model.n)
        p = random_cov(kind, model.n, rng)
        ue = _tikhonov_direct_with_factor(z, model, y, p)[0]
        uw = _tikhonov_woodbury_with_factor(z, model, y, p)[0]
        assert np.linalg.norm(ue - uw) <= 1e-10 * np.linalg.norm(ue)

    @pytest.mark.parametrize("psi,kind,builds", [
        (sp.random(14, 6, density=0.5, random_state=0, format="csr"),
         "scaled_identity", False),
        (np.random.default_rng(1).standard_normal((6, 14)), "diagonal", False),
        (sp.random(6, 14, density=0.5, random_state=2, format="csr"),
         "tridiagonal", False),
        (sp.random(6, 14, density=0.5, random_state=3, format="csr"),
         "diagonal", True),
    ], ids=["sparse-direct", "dense-psi", "sparse-tridiagonal", "sparse-diagonal"])
    def test_only_sparse_diagonal_woodbury_builds_gram_map(self, psi, kind, builds):
        model = SensingModel(psi)
        rng = np.random.default_rng(4)
        p = random_cov(kind, model.n, rng)
        tikhonov_factored(rng.uniform(0.2, 2.0, model.n), model,
                          rng.standard_normal(model.m), p)
        assert (model._gram_map is not None) == builds

    def test_sparse_solve_never_densifies_the_operator(self):
        model = build_radon(16, 5)
        rng = np.random.default_rng(0)
        y = model.apply(rng.uniform(0.0, 1.0, model.n))
        gcgls.solve(model, y, CovarianceParam.scaled_identity(model.n, 1.0),
                    ScaleRegularizer.log_squared(0.05),
                    gcgls.SolverConfig(K=2, J=2))
        assert model._dense_a is None


class TestInPlaceFactor:
    """The sparse Woodbury system is formed where LAPACK factors it."""

    @pytest.fixture(scope="class")
    def radon(self):
        model = build_radon(32, 15)
        rng = np.random.default_rng(0)
        z = rng.uniform(0.2, 2.0, model.n)
        y = model.apply(rng.uniform(0.0, 1.0, model.n))
        return model, z, y, CovarianceParam.scaled_identity(model.n, 1.5)

    def test_factor_equals_factor_of_full_system(self, radon):
        # the factor is that of the live-row block of the full system
        model, z, y, p = radon
        _, (route, c, live) = tikhonov_factored(z, model, y, p)
        low = mapped_gram(model, z * z * p.diag_values())
        ref, _ = sla.cho_factor(low + np.tril(low, -1).T, lower=True)
        assert route == "woodbury" and c.shape == (612, 612)
        assert np.array_equal(np.tril(c), np.tril(ref))

    def test_factor_overwrites_the_formed_system(self, radon, monkeypatch):
        model, z, y, p = radon
        seen = []

        def spy(a, **kwargs):
            c, info = sla.lapack.dpotrf(a, **kwargs)
            seen.append((a, c))
            return c, info

        monkeypatch.setattr(tikhonov, "_dpotrf", spy)
        tikhonov_factored(z, model, y, p)
        [(a, c)] = seen
        assert a.flags.f_contiguous and np.shares_memory(a, c)

    def test_update_holds_one_m_by_m_array(self, radon):
        # the r x r system on the live rows and O(m + n) floats besides: no
        # r^2-sized or triangle-sized temporary
        model, z, y, p = radon
        tikhonov_factored(z, model, y, p)  # builds the cached gram map
        r = model.gram_map()[0].size
        tracemalloc.start()
        try:
            tikhonov_factored(z, model, y, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - r * r * 8 < 64 * (model.m + model.n)


def reference_system(psi, w):
    """I + Psi Diag(w) Psi^T on Psi's live rows, its lower triangle in a
    Fortran array, formed in three passes: a CSR row sum over the sorted
    unique triangle positions, each row's pixels increasing; a scatter of
    those values into zeros; then 1.0 added on the diagonal."""
    csc, first, second, pixel = column_pairs(psi)
    live, rows = np.unique(csc.indices, return_inverse=True)
    r = live.size
    flat, slot = np.unique(rows[second] * r + rows[first], return_inverse=True)
    gram = sp.csr_matrix((csc.data[first] * csc.data[second], (slot, pixel)),
                         shape=(flat.size, psi.shape[1]))
    s = np.zeros(r * r)
    s[flat] = gram @ w
    s = s.reshape(r, r).T
    s[np.diag_indices(r)] += 1.0
    return s


class TestFormedSystemBits:
    """The one product that forms the sparse Woodbury system sums each
    entry in the order the three-pass build does, so the system and its
    factor keep their bits: the identity column comes last."""

    CASES = {"radon-32-15": lambda: build_radon(32, 15).psi,
             "radon-16-5": lambda: build_radon(16, 5).psi,
             "radon-6-3": lambda: build_radon(6, 3).psi,
             "irregular": lambda: IRREGULAR,
             "empty-rows": lambda: SPARSE_ROWS}

    @pytest.mark.parametrize("case", CASES)
    def test_system_and_factor_equal_the_three_pass_build(self, case, monkeypatch):
        model = SensingModel(self.CASES[case]())
        rng = np.random.default_rng(list(self.CASES).index(case))
        p = CovarianceParam.diagonal(model.n, rng.uniform(0.5, 2.0, model.n))
        z = rng.uniform(0.2, 2.0, model.n)
        formed = []

        def spy(a, **kwargs):
            formed.append(a.copy(order="F"))
            return sla.lapack.dpotrf(a, **kwargs)

        monkeypatch.setattr(tikhonov, "_dpotrf", spy)
        # the 5 x 4 empty-rows case has m > n, which tikhonov_factored
        # routes to the direct solve
        _, cho, _ = _tikhonov_woodbury_with_factor(
            z, model, rng.standard_normal(model.m), p)
        expect = reference_system(model.psi, z * z * p.diag_values())
        [got] = formed
        assert got.tobytes(order="F") == expect.tobytes(order="F")
        ref, info = sla.lapack.dpotrf(expect, lower=1, clean=0)
        assert info == 0
        assert cho.tobytes(order="F") == ref.tobytes(order="F")


def vector_solve(c, b):
    """The bits of a vector solve against the lower factor c: from order
    _DTRSV_MIN on, L^T x = w after L w = b by two BLAS dtrsv calls, below
    it cho_solve's."""
    if c.shape[0] >= tikhonov._DTRSV_MIN:
        w = sla.blas.dtrsv(c, b, lower=1)
        return sla.blas.dtrsv(c, w, lower=1, trans=1)
    return sla.cho_solve((c, True), b, check_finite=False)


# a vector solve against cho_solve's result: measured at most 4e-15 in the
# 2-norm over these tests' systems (u on Radon 32x32/15)
VECTOR_SOLVE_RTOL = 2e-14


def assert_close_rel(x, ref):
    assert np.linalg.norm(x - ref) <= VECTOR_SOLVE_RTOL * np.linalg.norm(ref)


class TestLapackSeam:
    """The u-update calls dpotrf directly, and solves a vector against a
    factor of order _DTRSV_MIN or more with two dtrsv calls: the factor is
    the bits SciPy's cho_factor gives, such a vector solve the bits of an
    explicit dtrsv pair on the live rows and within VECTOR_SOLVE_RTOL of
    cho_solve's; a smaller factor or a matrix right-hand side takes
    dpotrs, cho_solve's kernel, and keeps its bits."""

    RADON = {"radon-woodbury": (32, 15), "radon-direct": (8, 6)}

    @pytest.fixture(params=[*RADON, "dense-woodbury"])
    def system(self, request):
        rng = np.random.default_rng(5)
        if request.param in self.RADON:
            model = build_radon(*self.RADON[request.param])
            p = CovarianceParam.diagonal(model.n,
                                         rng.uniform(0.5, 2.0, model.n))
            y = model.apply(rng.uniform(0.0, 1.0, model.n))
            z = rng.uniform(0.2, 2.0, model.n)
        else:
            model, y, z, p = make_instance(20, 30, 5, "diagonal")
        return request.param, model, y, z, p, rng.standard_normal(model.n)

    @staticmethod
    def solved(system, monkeypatch, solve):
        """(u, factor, adjoint) of the system's u-update and its adjoint,
        with the factor routed through SciPy's cho_factor and each solve,
        on the live rows, through solve(c, b): the reference for the
        direct calls."""
        _, model, y, z, p, b = system
        with monkeypatch.context() as m:
            m.setattr(tikhonov, "_dpotrf", lambda a, **kw: (sla.cho_factor(
                a, lower=True, overwrite_a=True, check_finite=False)[0], 0))

            def backsolve(c, b, live=slice(None), name=None):
                x = np.zeros(b.shape)
                x[live] = solve(c, b[live])
                return x

            m.setattr(tikhonov, "_backsolve", backsolve)
            u, factor = tikhonov_factored(z, model, y, p)
            return u, factor, tikhonov_adjoint(b, z, model, p, factor)

    def test_factor_and_solves_equal_scipy(self, system, monkeypatch):
        case, model, y, z, p, b = system
        u, factor = tikhonov_factored(z, model, y, p)
        adjoint = tikhonov_adjoint(b, z, model, p, factor)
        u_ref, factor_ref, adjoint_ref = self.solved(system, monkeypatch,
                                                     vector_solve)
        assert factor[0] == factor_ref[0] == case.split("-")[1]
        if case == "radon-woodbury":    # solved on the live rows
            assert factor[2].size == 612
        assert np.array_equal(factor[1], factor_ref[1])
        assert np.array_equal(u, u_ref)
        assert np.array_equal(adjoint, adjoint_ref)
        u_cho, _, adjoint_cho = self.solved(
            system, monkeypatch,
            lambda c, b: sla.cho_solve((c, True), b, check_finite=False))
        assert_close_rel(u, u_cho)
        assert_close_rel(adjoint, adjoint_cho)

    def test_matrix_right_hand_side_equals_cho_solve(self, system):
        _, model, y, z, p, _ = system
        _, (_, c, _) = tikhonov_factored(z, model, y, p)
        rhs = np.random.default_rng(c.shape[0]).standard_normal((c.shape[0], 3))
        assert np.array_equal(tikhonov._backsolve(c, rhs),
                              sla.cho_solve((c, True), rhs))

    def test_vector_solve_kernel_follows_the_factor_order(self, monkeypatch):
        calls = []
        for name in ("_dtrsv", "_dpotrs"):
            def spy(*args, real=getattr(tikhonov, name), name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(tikhonov, name, spy)
        rng = np.random.default_rng(4)
        for r in (tikhonov._DTRSV_MIN - 1, tikhonov._DTRSV_MIN):
            a = rng.standard_normal((r, r))
            c = tikhonov._factor(np.asfortranarray(a @ a.T + r * np.eye(r)))
            b = rng.standard_normal(r)
            assert np.array_equal(tikhonov._backsolve(c, b), vector_solve(c, b))
            assert_close_rel(tikhonov._backsolve(c, b),
                             sla.cho_solve((c, True), b))
        assert calls == ["_dpotrs", "_dpotrs"] + ["_dtrsv"] * 4

    def test_factors_reach_the_solves_fortran_ordered(self, monkeypatch):
        # f2py's dtrsv and dpotrs copy a factor that is not Fortran-ordered
        # on every call; every route and the dense P kinds hand it over as
        # LAPACK wrote it
        seen = []

        def spy(c, b, *args, real=tikhonov._backsolve, **kwargs):
            seen.append(c.flags.f_contiguous)
            return real(c, b, *args, **kwargs)

        monkeypatch.setattr(tikhonov, "_backsolve", spy)
        monkeypatch.setattr(covariance, "_backsolve", spy)
        rng = np.random.default_rng(2)
        radon = build_radon(16, 5)
        routes = {"sparse-woodbury": (radon, CovarianceParam.diagonal(
                      radon.n, rng.uniform(0.5, 2.0, radon.n))),
                  "dense-woodbury": make_instance(20, 30, 5, "full")[::3],
                  "direct": make_instance(30, 20, 5, "full")[::3]}
        for name, (model, p) in routes.items():
            z = rng.uniform(0.2, 2.0, model.n)
            u, factor = tikhonov_factored(z, model, model.apply(z), p)
            tikhonov_adjoint(u, z, model, p, factor)
            assert factor[0] == name.split("-")[-1]
        for kind in ("tridiagonal", "full"):
            p = random_cov(kind, 9, rng)
            p.solve(rng.standard_normal(9))
            p.add_inverse_to(np.zeros((9, 9)))
        # a solve and an adjoint per route, the direct route's P^{-1}, and a
        # vector and a matrix solve per dense P kind
        assert seen == [True] * 11

    def test_not_positive_definite_names_the_minor(self):
        with pytest.raises(np.linalg.LinAlgError) as info:
            tikhonov._factor(np.asfortranarray([[1.0, 2.0], [2.0, 1.0]]))
        assert str(info.value) == \
            "u-update system is not positive definite (2-th leading minor)"

    def test_empty_system_solves_to_zero(self):
        # an all-zero sparse Psi leaves no live row to factor
        model = SensingModel(sp.csr_matrix((3, 5)))
        p = CovarianceParam.scaled_identity(5, 1.0)
        u, factor = tikhonov_factored(np.ones(5), model, np.ones(3), p)
        assert factor[1].shape == (0, 0) and np.array_equal(u, np.zeros(5))
        assert np.array_equal(tikhonov_adjoint(np.ones(5), np.ones(5), model,
                                               p, factor), np.ones(5))


class TestLiveRows:
    """On a sparse Psi with empty rows the Woodbury system is solved on the
    live rows alone, which is exact: an empty row's system row is e_i."""

    @pytest.fixture(scope="class")
    def radon(self):
        model = build_radon(32, 15)
        rng = np.random.default_rng(1)
        p = CovarianceParam.diagonal(model.n, rng.uniform(0.5, 2.0, model.n))
        return (model, rng.uniform(0.2, 2.0, model.n),
                model.apply(rng.uniform(0.0, 1.0, model.n))
                + 0.1 * rng.standard_normal(model.m), p,
                rng.standard_normal(model.n))

    @staticmethod
    def full_system(z, model, p):
        psi = model.psi.toarray()
        return np.eye(model.m) + (psi * (z * z * p.diag_values())) @ psi.T

    def test_solution_matches_exact_and_full_system(self, radon):
        model, z, y, p, _ = radon
        u = _tikhonov_woodbury_with_factor(z, model, y, p)[0]
        full = p.diag_values() * z * model.adjoint(
            np.linalg.solve(self.full_system(z, model, p), y))
        exact = _tikhonov_direct_with_factor(z, model, y, p)[0]
        for expect in (exact, full):
            assert np.linalg.norm(u - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_adjoint_matches_exact_and_full_system(self, radon):
        model, z, y, p, b = radon
        _, factor = tikhonov_factored(z, model, y, p)
        w = tikhonov_adjoint(b, z, model, p, factor)
        pb = p.apply(b)
        full = pb - p.apply(z * model.adjoint(np.linalg.solve(
            self.full_system(z, model, p), model.apply(z * pb))))
        exact = np.linalg.solve(dense_u_system(z, model, p), b)
        for expect in (exact, full):
            assert np.linalg.norm(w - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_nan_measurement_on_an_empty_row_raises(self, radon):
        model, z, y, p, _ = radon
        live, _ = model.gram_map()
        y = y.copy()
        y[np.setdiff1d(np.arange(model.m), live)[0]] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            tikhonov_factored(z, model, y, p)

class TestNonFiniteInput:
    """A non-finite system or right-hand side raises LinAlgError, the error
    a failed factorization raises, on every exact route."""

    ROUTES = {
        "sparse-woodbury": lambda rng: build_radon(6, 3),
        "dense-woodbury": lambda rng: SensingModel(
            rng.standard_normal((6, 14)) / math.sqrt(14)),
        "direct": lambda rng: SensingModel(
            rng.standard_normal((14, 6)) / math.sqrt(6)),
    }

    # taken mod n: next to the center of the 6 x 6 Radon image, where
    # every ray angle crosses; the Gaussian operators have no empty column
    PIXEL = 21

    def instance(self, route):
        rng = np.random.default_rng(list(self.ROUTES).index(route))
        model = self.ROUTES[route](rng)
        p = CovarianceParam.diagonal(model.n, rng.uniform(0.5, 2.0, model.n))
        return (model, rng.uniform(0.2, 2.0, model.n),
                rng.standard_normal(model.m), p, rng.standard_normal(model.n))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_non_finite_z(self, route, bad):
        model, z, y, p, _ = self.instance(route)
        z[self.PIXEL % model.n] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            tikhonov_factored(z, model, y, p)

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_non_finite_adjoint_input(self, route):
        model, z, y, p, b = self.instance(route)
        _, factor = tikhonov_factored(z, model, y, p)
        b[self.PIXEL % model.n] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            tikhonov_adjoint(b, z, model, p, factor)


def dense_u_system(z, model, p):
    az = model.dense_a() * z[None, :]
    return az.T @ az + np.linalg.inv(p.materialize())


class TestOneCholeskyPath:
    """Every SPD factor and solve in the package, P's included, goes through
    the u-update's dpotrf/dpotrs helpers: with SciPy's cho_factor and
    cho_solve made to raise, the dense-P paths of the solver, the network
    and training still run."""

    @pytest.fixture(autouse=True)
    def no_scipy_cholesky(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SciPy's cho_factor/cho_solve was called")
        monkeypatch.setattr(sla, "cho_factor", refuse)
        monkeypatch.setattr(sla, "cho_solve", refuse)

    def test_covariance_imports_nothing_from_scipy(self):
        tree = ast.parse(inspect.getsource(covariance))
        modules = [a.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for a in node.names]
        modules += [node.module or "" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)]
        assert modules and not [m for m in modules if m.startswith("scipy")]

    def test_full_covariance_solve(self):
        # m > n: the direct route adds P^{-1} into its system
        model, y, z, p = make_instance(20, 12, 3, "full")
        rep = gcgls.solve(model, y, p, ScaleRegularizer.log_squared(0.05),
                          gcgls.SolverConfig(K=3, J=2, zstep_method="ista"))
        assert np.isfinite(rep.c_star).all()

    def net_setup(self, cov_kind):
        model = build_radon(8, 6)
        cfg = NetConfig(K=1, J=1, depth=2, kernel=3, channels=(4, 1),
                        cov_kind=cov_kind)
        ds = gen_dataset("synthetic", model, 60.0, 2, seed=1)
        return model, cfg, ds.pairs

    def test_tridiagonal_covariance_network(self):
        model, cfg, pairs = self.net_setup("tridiagonal")
        params = init_params(cfg, model.n, seed=0, cov_init=0.1)
        out, tape = forward(pairs[0][0], model, params)
        grads = backward(tape, np.ones_like(out), params)
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_full_covariance_training_epoch(self):
        model, cfg, pairs = self.net_setup("full")
        params, history = train(pairs, model, cfg,
                                TrainConfig(lr=1e-3, epochs=1, seed=0))
        assert len(history["train_mae"]) == 1
        assert np.isfinite(params.values["cov.L"]).all()


class TestAdjoint:
    # dense Woodbury (m < n), direct (m > n) and sparse Radon Woodbury
    # (m=27 < n=36; the diagonal kinds take the sparse formation)
    OPERATORS = {
        "gaussian_wide": lambda rng: SensingModel(
            rng.standard_normal((6, 14)) / math.sqrt(14)),
        "gaussian_tall": lambda rng: SensingModel(
            rng.standard_normal((14, 6)) / math.sqrt(6)),
        "radon": lambda rng: build_radon(6, 3),
    }

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("op", list(OPERATORS))
    def test_matches_dense_solve(self, op, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        model = self.OPERATORS[op](rng)
        y = rng.standard_normal(model.m)
        z = rng.uniform(0.2, 2.0, model.n)
        p = random_cov(kind, model.n, rng)
        b = rng.standard_normal(model.n)
        _, factor = tikhonov_factored(z, model, y, p)
        w = tikhonov_adjoint(b, z, model, p, factor)
        expect = np.linalg.solve(dense_u_system(z, model, p), b)
        assert np.linalg.norm(w - expect) <= 1e-10 * np.linalg.norm(expect)


class TestLipschitzEstimate:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_largest_eigenvalue(self, kind):
        model, _, z, p = make_instance(6, 14, 40 + KINDS.index(kind), kind)
        expect = np.linalg.eigvalsh(dense_u_system(z, model, p))[-1]
        assert estimate_u_lipschitz(z, model, p) == pytest.approx(expect, rel=1e-6)


class TestGradientStep:
    def test_fixed_point_at_solution(self):
        model, y, z, p = make_instance(6, 9, 8)
        u_star = _tikhonov_direct_with_factor(z, model, y, p)[0]
        u_next = u_star - 0.01 * grad_u(u_star, z, model, y, p)
        assert np.linalg.norm(u_next - u_star) < 1e-8

    def test_grad_u_finite_differences(self):
        model, y, z, p = make_instance(4, 5, 10, "full")
        rng = np.random.default_rng(11)
        u = rng.standard_normal(5)
        g = grad_u(u, z, model, y, p)
        h = 1e-6
        for k in range(5):
            up, um = u.copy(), u.copy()
            up[k] += h
            um[k] -= h
            num = (u_objective(up, z, model, y, p)
                   - u_objective(um, z, model, y, p)) / (2 * h)
            assert abs(num - g[k]) <= 1e-6 * max(abs(num), 1.0)


class TestNagd:
    def well_conditioned(self, seed):
        # modest operator norm and a firm P^{-1} keep the condition number
        # low enough for the 100-step tolerance
        rng = np.random.default_rng(seed)
        model = SensingModel(rng.standard_normal((8, 16)) / math.sqrt(16))
        y = rng.standard_normal(8)
        z = rng.uniform(0.2, 1.5, 16)
        p = CovarianceParam.scaled_identity(16, 0.5)
        return model, y, z, p

    def test_hundred_steps_match_exact(self):
        for seed in range(10):
            model, y, z, p = self.well_conditioned(seed)
            u_star = _tikhonov_direct_with_factor(z, model, y, p)[0]
            u = tikhonov_nagd(np.zeros(16), z, model, y, p, NagdConfig(steps=100))
            assert np.linalg.norm(u - u_star) <= 1e-4 * np.linalg.norm(u_star)

    def test_exact_start_is_fixed(self):
        model, y, z, p = self.well_conditioned(3)
        u_star = _tikhonov_direct_with_factor(z, model, y, p)[0]
        u = tikhonov_nagd(u_star, z, model, y, p, NagdConfig(steps=25))
        assert np.linalg.norm(u - u_star) <= 1e-8 * max(np.linalg.norm(u_star), 1.0)

    def test_error_decays_with_steps(self):
        for seed in range(5):
            model, y, z, p = self.well_conditioned(20 + seed)
            u_star = _tikhonov_direct_with_factor(z, model, y, p)[0]
            e10 = np.linalg.norm(
                tikhonov_nagd(np.zeros(16), z, model, y, p, NagdConfig(steps=10))
                - u_star)
            e100 = np.linalg.norm(
                tikhonov_nagd(np.zeros(16), z, model, y, p, NagdConfig(steps=100))
                - u_star)
            assert e100 < e10

    def test_objective_decreases_after_warmup(self):
        # momentum ripples make strict per-step decrease instance-specific;
        # this instance exhibits it
        model, y, z, p = self.well_conditioned(49)
        u, trace = tikhonov_nagd(np.zeros(16), z, model, y, p,
                                 NagdConfig(steps=40), want_trace=True)
        f = [u_objective(t, z, model, y, p) for t in trace]
        assert all(f[j + 1] <= f[j] + 1e-12 for j in range(2, len(f) - 1))

    def test_accelerated_decay_bound(self):
        # robust across instances: gap_j <= C * gap_0 / (j+2)^2
        for seed in range(10):
            model, y, z, p = self.well_conditioned(seed)
            u_star = _tikhonov_direct_with_factor(z, model, y, p)[0]
            f_star = u_objective(u_star, z, model, y, p)
            _, trace = tikhonov_nagd(np.zeros(16), z, model, y, p,
                                     NagdConfig(steps=60), want_trace=True)
            f = [u_objective(t, z, model, y, p) for t in trace]
            gap0 = f[0] - f_star
            for j in range(1, len(f)):
                assert f[j] - f_star <= 8.0 * gap0 / (j + 2) ** 2

    def test_divergence_error_on_bad_eta(self):
        model, y, z, p = self.well_conditioned(31)
        with pytest.raises(DivergenceError):
            tikhonov_nagd(np.zeros(16), z, model, y, p,
                          NagdConfig(steps=200, eta=50.0))

    @pytest.mark.parametrize("steps", [1, 3, 9])
    def test_divergence_error_at_few_steps(self, steps):
        # a step count below the guard's run of 10 rising steps: every step
        # rising above the start, the first a plain gradient step, is
        # divergence too
        model, y, z, p = self.well_conditioned(31)
        with pytest.raises(DivergenceError, match=f"grew for {steps} "):
            tikhonov_nagd(np.zeros(16), z, model, y, p,
                          NagdConfig(steps=steps, eta=50.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("steps", [20, 100])
    @pytest.mark.parametrize("kind", KINDS)
    def test_divergence_error_on_non_finite_objective(self, kind, steps):
        # eta = 1e30 overflows the objective within a few steps; a NaN never
        # compares as rising, so the rise guard alone let it through
        model, y, z, p = make_instance(6, 14, 61, kind)
        with pytest.raises(DivergenceError) as info:
            tikhonov_nagd(np.zeros(14), z, model, y, p,
                          NagdConfig(steps=steps, eta=1e30))
        assert str(info.value) == ("u-objective is not finite after 5 "
                                   "accelerated steps (eta=1e+30)")

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_operator_pass_per_iterate(self, monkeypatch, kind):
        # each iterate's residual and P^{-1} u give both its u-objective and
        # its gradient step
        model, y, z, p = make_instance(6, 14, 60, kind)
        calls = {"apply": 0, "adjoint": 0, "solve": 0}
        for owner, name in ((model, "apply"), (model, "adjoint"), (p, "solve")):
            def counted(*args, real=getattr(owner, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, counted)
        steps = 9
        u, trace = tikhonov_nagd(np.zeros(14), z, model, y, p,
                                 NagdConfig(steps=steps, eta=0.01),
                                 want_trace=True)
        assert calls == {"apply": steps + 1, "adjoint": steps,
                         "solve": steps + 1}
        assert len(trace) == steps + 1 and trace[-1] is u

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NagdConfig(steps=0)
