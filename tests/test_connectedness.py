import json
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskengine.cli import write_edges_json
from riskengine.connectedness import (
    VarModel,
    connectedness_table,
    fit_var,
    gfevd,
    indices,
    normalize_rows,
)
from riskengine.data import MultiSeries
from riskengine.errors import ConfigError, DataError, EstimationError


def _multi(values, names=None):
    values = np.asarray(values, float)
    names = names or tuple(f"s{i}" for i in range(values.shape[1]))
    dates = tuple(date.fromordinal(736000 + i) for i in range(len(values)))
    return MultiSeries(dates=dates, names=tuple(names), values=values)


def simulate_var1(phi, sigma_chol, n, seed, intercept=None):
    rng = np.random.default_rng(seed)
    k = phi.shape[0]
    intercept = np.zeros(k) if intercept is None else intercept
    y = np.zeros((n, k))
    prev = np.zeros(k)
    for t in range(n):
        eps = sigma_chol @ rng.standard_normal(k)
        prev = intercept + phi @ prev + eps
        y[t] = prev
    return y


def gfevd_loops(phis, sigma, horizon):
    """Explicit-loop reimplementation: matrix-power MA terms and scalar sums."""
    k = sigma.shape[0]
    order = len(phis)
    psis = [np.eye(k)]
    for h in range(1, horizon):
        acc = np.zeros((k, k))
        for i in range(1, min(h, order) + 1):
            acc = acc + phis[i - 1] @ psis[h - i]
        psis.append(acc)
    theta = np.zeros((k, k))
    for j in range(k):
        e_j = np.zeros(k)
        e_j[j] = 1.0
        denom = 0.0
        for psi in psis:
            denom += float(e_j @ psi @ sigma @ psi.T @ e_j)
        for kk in range(k):
            e_k = np.zeros(k)
            e_k[kk] = 1.0
            numer = 0.0
            for psi in psis:
                numer += float(e_j @ psi @ sigma @ e_k) ** 2
            theta[j, kk] = numer / (sigma[kk, kk] * denom)
    return theta


class TestFitVar:
    def test_white_noise_has_small_coefficients(self):
        rng = np.random.default_rng(91)
        y = rng.standard_normal((10_000, 2))
        model = fit_var(_multi(y), order=1)
        assert np.max(np.abs(model.phi[0])) <= 0.05
        assert np.allclose(model.sigma, np.eye(2), atol=0.05)

    def test_recovers_known_var1(self):
        phi = np.array([[0.5, 0.1], [0.0, 0.3]])
        y = simulate_var1(phi, np.eye(2), 50_000, seed=92)
        model = fit_var(_multi(y), order=1)
        assert np.max(np.abs(model.phi[0] - phi)) <= 0.02
        assert np.max(np.abs(model.intercept)) <= 0.02

    def test_constant_column_rejected(self):
        rng = np.random.default_rng(93)
        y = np.column_stack([np.ones(500), rng.standard_normal(500)])
        with pytest.raises(EstimationError):
            fit_var(_multi(y), order=1)

    def test_sample_too_short(self):
        rng = np.random.default_rng(94)
        y = rng.standard_normal((30, 2))
        with pytest.raises(DataError):
            fit_var(_multi(y), order=2)

    def test_single_column_rejected(self):
        rng = np.random.default_rng(95)
        y = rng.standard_normal((500, 1))
        with pytest.raises(DataError):
            fit_var(_multi(y), order=1)

    def test_sigma_divisor(self):
        rng = np.random.default_rng(96)
        y = rng.standard_normal((400, 2))
        model = fit_var(_multi(y), order=1)
        # recompute residual covariance with the T - p divisor
        x = np.column_stack([np.ones(399), y[:-1]])
        coef, _, _, _ = np.linalg.lstsq(x, y[1:], rcond=None)
        resid = y[1:] - x @ coef
        assert np.allclose(model.sigma, resid.T @ resid / 399, atol=1e-12)

    def test_order_two_matches_raw_design_oracle(self):
        rng = np.random.default_rng(97)
        y = rng.standard_normal((600, 3)) + 5.0
        model = fit_var(_multi(y), order=2)
        x = np.column_stack([np.ones(598), y[1:-1], y[:-2]])
        coef, _, _, _ = np.linalg.lstsq(x, y[2:], rcond=None)
        assert np.allclose(model.intercept, coef[0], rtol=0, atol=1e-12)
        assert np.allclose(model.phi[0], coef[1:4].T, rtol=0, atol=1e-12)
        assert np.allclose(model.phi[1], coef[4:7].T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale, shift", [
        (1e-14, 0.0), (1e-20, 0.0), (1e-150, 0.0), (1e150, 0.0),
        (1.0, 1e6), (1.0, 1e8),
    ])
    def test_invariant_to_scale_and_shift(self, scale, shift):
        # a rank check or a square on the raw scale used to reject or
        # overflow these panels
        phi = np.array([[0.3, 0.0, 0.0], [0.4, 0.2, 0.0], [0.0, 0.3, 0.1]])
        y = simulate_var1(phi, np.eye(3), 3_000, seed=99)
        base = fit_var(_multi(y), order=2)
        moved = fit_var(_multi(y * scale + shift), order=2)
        for got, want in zip(moved.phi, base.phi):
            assert np.allclose(got, want, rtol=0, atol=1e-7)
        assert np.allclose(connectedness_table(moved).theta_tilde,
                           connectedness_table(base).theta_tilde, rtol=0, atol=1e-8)

    def test_residual_variance_below_float_range_is_data_error(self):
        rng = np.random.default_rng(99)
        with pytest.raises(DataError, match="residual variances"):
            fit_var(_multi(rng.standard_normal((500, 2)) * 1e-160), order=1)


def gfevd_from_psis(psis, sigma):
    """The decomposition summed over given MA terms, as whole-array sums."""
    numer = sum((psi @ sigma) ** 2 for psi in psis) / np.diag(sigma)[None, :]
    denom = sum(np.diag(psi @ sigma @ psi.T) for psi in psis)
    return numer / denom[:, None]


class TestMaCoefficients:
    """The MA terms Psi_h that gfevd streams, seen through its output."""

    def _model(self, phis, sigma):
        k = phis[0].shape[0]
        return VarModel(order=len(phis), intercept=np.zeros(k),
                        phi=tuple(phis), sigma=sigma)

    def test_zero_phi(self):
        # Psi_0 = I and every later Psi_h is exactly 0, so longer horizons
        # add nothing to either sum
        sigma = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.5],
                          [-0.2, 0.5, 1.5]])
        model = self._model([np.zeros((3, 3))], sigma)
        one = gfevd(model, 1)
        assert np.allclose(one, sigma ** 2 / np.outer(np.diag(sigma),
                                                      np.diag(sigma)),
                           atol=1e-15)
        assert np.array_equal(gfevd(model, 4), one)

    def test_var1_matrix_powers(self):
        phi = np.array([[0.4, 0.2], [-0.1, 0.3]])
        sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
        psis = [np.linalg.matrix_power(phi, h) for h in range(6)]
        assert np.allclose(gfevd(self._model([phi], sigma), 6),
                           gfevd_from_psis(psis, sigma), atol=1e-14)

    def test_var2_scalar_recursion(self):
        # series 0 is the AR(2) psi_h = 0.5 psi_{h-1} + 0.2 psi_{h-2}, and
        # series 1 is series 0 lagged once plus its own shock, so row 1 of
        # Psi_h is (psi_{h-1}, 0): psi_0..psi_2 = 1, 0.5, 0.5 * 0.5 + 0.2
        phi1 = np.array([[0.5, 0.0], [1.0, 0.0]])
        phi2 = np.array([[0.2, 0.0], [0.0, 0.0]])
        theta = gfevd(self._model([phi1, phi2], np.eye(2)), 4)
        s = 1.0 + 0.5 ** 2 + (0.5 * 0.5 + 0.2) ** 2
        assert theta[0, 0] == pytest.approx(1.0)
        assert theta[0, 1] == 0.0
        assert theta[1, 0] == pytest.approx(s / (1.0 + s))
        assert theta[1, 1] == pytest.approx(1.0 / (1.0 + s))


class TestGfevd:
    def test_horizon_bounds(self):
        model = VarModel(order=1, intercept=np.zeros(2),
                         phi=(0.5 * np.eye(2),), sigma=np.eye(2))
        assert gfevd(model, 1000).shape == (2, 2)
        for horizon in (0, 1001, 10 ** 8):
            with pytest.raises(ConfigError):
                gfevd(model, horizon)
            with pytest.raises(ConfigError):
                connectedness_table(model, horizon)

    def test_no_dynamics_diagonal_sigma(self):
        model = VarModel(order=1, intercept=np.zeros(2),
                         phi=(np.zeros((2, 2)),),
                         sigma=np.diag([2.0, 3.0]))
        assert np.allclose(gfevd(model, 1), np.eye(2), atol=1e-15)

    def test_correlation_closed_form(self):
        rho = 0.6
        model = VarModel(order=1, intercept=np.zeros(2),
                         phi=(np.zeros((2, 2)),),
                         sigma=np.array([[1.0, rho], [rho, 1.0]]))
        # with Phi = 0 the decomposition does not move with the horizon
        for horizon in (1, 5):
            theta = gfevd(model, horizon)
            assert theta[0, 1] == pytest.approx(rho ** 2, abs=1e-14)
            assert theta[1, 0] == pytest.approx(rho ** 2, abs=1e-14)

    def test_matches_loop_oracle(self):
        # VAR(1) steps through matrix powers, VAR(2) and VAR(3) through the
        # full recursion, which at h < p uses fewer than p terms
        rng = np.random.default_rng(97)
        for order in (1, 2, 3):
            for _ in range(5):
                phis = [rng.uniform(-0.4, 0.4, size=(2, 2)) / order
                        for _ in range(order)]
                a = rng.uniform(-1, 1, size=(2, 2))
                sigma = a @ a.T + 0.5 * np.eye(2)
                model = VarModel(order=order, intercept=np.zeros(2),
                                 phi=tuple(phis), sigma=sigma)
                assert np.allclose(gfevd(model, 10),
                                   gfevd_loops(phis, sigma, 10), atol=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(98)
        phi = rng.uniform(-0.3, 0.3, size=(3, 3))
        a = rng.uniform(-1, 1, size=(3, 3))
        sigma = a @ a.T + 0.5 * np.eye(3)
        perm = np.array([2, 0, 1])
        p_mat = np.eye(3)[perm]
        base = gfevd(VarModel(order=1, intercept=np.zeros(3), phi=(phi,),
                              sigma=sigma), 8)
        permuted = gfevd(VarModel(order=1, intercept=np.zeros(3),
                                  phi=(p_mat @ phi @ p_mat.T,),
                                  sigma=p_mat @ sigma @ p_mat.T), 8)
        assert np.allclose(permuted, p_mat @ base @ p_mat.T, atol=1e-12)


class TestNormalizeRows:
    def test_identity(self):
        assert np.array_equal(normalize_rows(np.eye(4)), np.eye(4))

    def test_simple_row(self):
        assert normalize_rows(np.array([[2.0, 2.0]])).tolist() == [[0.5, 0.5]]

    def test_random_rows_sum_to_one(self):
        rng = np.random.default_rng(99)
        theta = rng.uniform(0.0, 5.0, size=(6, 6)) + 1e-3
        tilde = normalize_rows(theta)
        assert np.allclose(tilde.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            normalize_rows(np.array([[0.0, 0.0], [1.0, 1.0]]))


class TestIndices:
    def test_identity_table(self):
        table = indices(np.eye(3))
        assert table.tci == 0.0
        assert np.all(table.to_others == 0.0)
        assert np.all(table.from_others == 0.0)
        assert np.all(table.net == 0.0)

    def test_symmetric_two_by_two(self):
        table = indices(np.full((2, 2), 0.5))
        assert table.tci == pytest.approx(50.0)
        assert table.to_others.tolist() == [50.0, 50.0]
        assert table.from_others.tolist() == [50.0, 50.0]
        assert table.net.tolist() == [0.0, 0.0]

    def test_net_sums_to_zero(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            theta = rng.uniform(0.0, 1.0, size=(5, 5)) + 1e-6
            table = indices(normalize_rows(theta))
            assert abs(float(table.net.sum())) <= 1e-8
            assert 0.0 <= table.tci <= 100.0

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            indices(np.full((2, 2), 0.7))


class TestPipeline:
    def test_white_noise_low_tci(self):
        rng = np.random.default_rng(101)
        y = rng.standard_normal((10_000, 2))
        model = fit_var(_multi(y), order=1)
        table = connectedness_table(model, horizon=10)
        assert table.tci <= 5.0
        assert np.allclose(table.theta_tilde.sum(axis=1), 1.0, atol=1e-10)

    def test_fitted_tables_respect_tci_bound(self):
        # own-variance share dominates in decomposition-derived tables, which
        # caps the total index at 100*(N-1)/N
        rng = np.random.default_rng(103)
        for seed in range(5):
            n_vars = int(rng.integers(2, 5))
            phi = rng.uniform(-0.35, 0.35, size=(n_vars, n_vars))
            if np.max(np.abs(np.linalg.eigvals(phi))) >= 0.95:
                continue
            a = rng.uniform(-1, 1, size=(n_vars, n_vars))
            sigma = a @ a.T + 0.5 * np.eye(n_vars)
            y = simulate_var1(phi, np.linalg.cholesky(sigma), 3_000,
                              seed=200 + seed)
            table = connectedness_table(fit_var(_multi(y), order=1), horizon=10)
            assert 0.0 <= table.tci <= 100.0 * (n_vars - 1) / n_vars + 1e-9
            assert abs(float(table.net.sum())) <= 1e-8

    def test_edge_list_matches_off_diagonal(self, tmp_path):
        phi = np.array([[0.5, 0.1], [0.0, 0.3]])
        y = simulate_var1(phi, np.linalg.cholesky(
            np.array([[1.0, 0.3], [0.3, 1.0]])), 5_000, seed=102)
        multi = _multi(y, names=("alpha", "bravo"))
        model = fit_var(multi, order=1)
        table = connectedness_table(model, horizon=10)
        path = tmp_path / "table.edges.json"
        write_edges_json(table, multi.names, 10, path)
        edges = json.loads(path.read_text())["edges"]
        assert len(edges) == 2
        by_pair = {(e["from"], e["to"]): e["weight"] for e in edges}
        assert by_pair[("bravo", "alpha")] == table.theta_tilde[0, 1]
        assert by_pair[("alpha", "bravo")] == table.theta_tilde[1, 0]


@st.composite
def _panels(draw):
    """A stable VAR(1) panel of 2-4 series with correlated shocks."""
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = rng.uniform(-0.4, 0.4, size=(k, k))
    radius = float(np.max(np.abs(np.linalg.eigvals(phi))))
    if radius > 0.9:
        phi *= 0.9 / radius
    a = rng.uniform(-1, 1, size=(k, k))
    chol = np.linalg.cholesky(a @ a.T + 0.5 * np.eye(k))
    y = simulate_var1(phi, chol, draw(st.integers(300, 600)),
                      seed=int(rng.integers(2**32)))
    return y, draw(st.integers(1, 2)), draw(st.integers(1, 12))


class TestTableProperties:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(_panels(), st.data())
    def test_invariant_to_per_series_scale_and_shift(self, panel, data):
        y, order, horizon = panel
        k = y.shape[1]
        exponents = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=k,
                                       max_size=k))
        shifts = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=k,
                                    max_size=k))
        # the shift is in units of each series' own scale
        moved = (y + np.array(shifts)) * 10.0 ** np.array(exponents)
        base = connectedness_table(fit_var(_multi(y), order), horizon)
        got = connectedness_table(fit_var(_multi(moved), order), horizon)
        assert np.allclose(got.theta_tilde, base.theta_tilde, rtol=0, atol=1e-8)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(_panels(), st.data())
    def test_permuting_series_permutes_table(self, panel, data):
        y, order, horizon = panel
        k = y.shape[1]
        perm = np.array(data.draw(st.permutations(range(k))))
        base = connectedness_table(fit_var(_multi(y), order), horizon)
        got = connectedness_table(fit_var(_multi(y[:, perm]), order), horizon)
        assert np.allclose(got.theta_tilde,
                           base.theta_tilde[np.ix_(perm, perm)],
                           rtol=0, atol=1e-12)
        assert np.allclose(got.net, base.net[perm], rtol=0, atol=1e-9)
        assert got.tci == pytest.approx(base.tci, rel=1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(_panels())
    def test_normalized_rows_sum_to_one(self, panel):
        y, order, horizon = panel
        tilde = connectedness_table(fit_var(_multi(y), order), horizon).theta_tilde
        assert np.all(tilde >= 0.0)
        assert np.allclose(tilde.sum(axis=1), 1.0, rtol=0, atol=1e-12)
