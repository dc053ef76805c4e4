import numpy as np
import pytest

from ecomforge.core import ForgeError
from ecomforge.lora import (
    LoraAdapter,
    adapter_fit_toy,
    analytic_gradients,
    grad_check,
    lora_forward,
    lora_init,
    lora_param_count,
    matrix_digest,
    verify,
)

from oracles import oracle_dense_lora, oracle_fd_gradient


class TestInit:
    def test_b_exactly_zero(self):
        for d, k, r, seed in [(8, 8, 2, 0), (16, 4, 3, 9), (3, 7, 1, 123)]:
            adapter = lora_init(d, k, r, seed=seed)
            assert np.all(adapter.B == 0.0)
            assert adapter.A.shape == (r, k) and adapter.B.shape == (d, r)

    def test_rank_too_large(self):
        with pytest.raises(ForgeError, match=r"rank \d+ outside \[1, min\(4, 6\)\]"):
            lora_init(4, 6, 5, seed=0)
        with pytest.raises(ForgeError, match=r"rank \d+ outside \[1, min\(4, 6\)\]"):
            lora_init(4, 6, 0, seed=0)

    def test_deterministic_per_seed(self):
        a = lora_init(6, 6, 2, seed=11)
        b = lora_init(6, 6, 2, seed=11)
        c = lora_init(6, 6, 2, seed=12)
        assert np.array_equal(a.A, b.A)
        assert not np.array_equal(a.A, c.A)

    def test_gaussian_moments(self):
        # Moment-estimation oracle: pooled samples across redraws must sit
        # within 3-sigma bands of (0, sigma^2).
        sigma = 0.02
        d = k = 8
        r = 2
        samples = np.concatenate(
            [lora_init(d, k, r, seed=s, sigma=sigma).A.ravel() for s in range(10_000 // (r * k))]
        )
        n = samples.size
        mean_se = sigma / np.sqrt(n)
        assert abs(samples.mean()) < 3 * mean_se
        var = samples.var()
        var_se = sigma**2 * np.sqrt(2.0 / (n - 1))
        assert abs(var - sigma**2) < 3 * var_se

    def test_adapter_shape_validation(self):
        with pytest.raises(ForgeError, match="inconsistent with d=4, k=9, r=2"):
            LoraAdapter(A=np.zeros((2, 3)), B=np.zeros((4, 2)), d=4, k=9, r=2)


class TestForward:
    def test_zero_init_equals_base(self):
        rng = np.random.default_rng(0)
        W0 = rng.standard_normal((5, 7))
        x = rng.standard_normal(7)
        adapter = lora_init(5, 7, 3, seed=1)
        assert np.array_equal(lora_forward(W0, adapter, x), W0 @ x)

    def test_zero_input(self):
        adapter = lora_init(4, 4, 2, seed=0)
        W0 = np.ones((4, 4))
        assert np.array_equal(lora_forward(W0, adapter, np.zeros(4)), np.zeros(4))

    def test_dense_materialization_oracle_small_integers(self):
        W0 = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [2.0, 0.0, 1.0]])
        A = np.array([[1.0, 0.0, 2.0]])
        B = np.array([[1.0], [0.0], [3.0]])
        adapter = LoraAdapter(A=A, B=B, d=3, k=3, r=1)
        x = np.array([1.0, 2.0, 3.0])
        got = lora_forward(W0, adapter, x)
        expected = oracle_dense_lora(W0.tolist(), A.tolist(), B.tolist(), x.tolist())
        assert np.allclose(got, expected, rtol=1e-12, atol=0)

    def test_dense_equivalence_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d, k = int(rng.integers(2, 65)), int(rng.integers(2, 65))
            r = int(rng.integers(1, min(d, k) + 1))
            W0 = rng.standard_normal((d, k))
            adapter = lora_init(d, k, r, seed=int(rng.integers(0, 2**31)))
            adapter.B[:] = rng.standard_normal((d, r))
            x = rng.standard_normal(k)
            dense = (W0 + adapter.B @ adapter.A) @ x
            got = lora_forward(W0, adapter, x)
            assert np.allclose(got, dense, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch(self):
        adapter = lora_init(4, 4, 2, seed=0)
        with pytest.raises(ForgeError, match=r"W0 shape \(4, 5\), expected \(4, 4\)"):
            lora_forward(np.zeros((4, 5)), adapter, np.zeros(4))
        with pytest.raises(ForgeError, match=r"x shape \(5,\), expected \(4,\)"):
            lora_forward(np.zeros((4, 4)), adapter, np.zeros(5))


class TestParamCount:
    def test_published_configurations(self):
        assert lora_param_count(4096, 8, 32) == 8_388_608
        assert lora_param_count(5120, 8, 40) == 13_107_200
        assert lora_param_count(6656, 8, 60) == 25_559_040

    def test_three_significant_figures(self):
        assert round(lora_param_count(4096, 8, 32) / 1e6, 2) == 8.39
        assert round(lora_param_count(5120, 8, 40) / 1e6, 2) == 13.11
        assert round(lora_param_count(6656, 8, 60) / 1e6, 2) == 25.56

    def test_rank_zero(self):
        assert lora_param_count(4096, 0, 32) == 0

    def test_linear_in_factors(self):
        base = lora_param_count(512, 4, 10)
        assert lora_param_count(512, 8, 10) == 2 * base
        assert lora_param_count(512, 4, 20) == 2 * base


class TestGradients:
    def _instance(self, seed=0, d=8, k=8, r=2):
        rng = np.random.default_rng(seed)
        W0 = rng.standard_normal((d, k))
        adapter = lora_init(d, k, r, seed=seed + 1, sigma=0.5)
        adapter.B[:] = rng.standard_normal((d, r))
        x = rng.standard_normal(k)
        y = rng.standard_normal(d)
        return W0, adapter, x, y

    def test_zero_residual_zero_gradient(self):
        W0, adapter, x, _ = self._instance()
        y = lora_forward(W0, adapter, x)
        grad_A, grad_B = analytic_gradients(W0, adapter, x, y)
        assert np.all(grad_A == 0) and np.all(grad_B == 0)

    def test_grad_check_small(self):
        W0, adapter, x, y = self._instance()
        assert grad_check(W0, adapter, x, y, eps=1e-5) <= 1e-4

    def test_eps_zero_rejected(self):
        W0, adapter, x, y = self._instance()
        with pytest.raises(ValueError):
            grad_check(W0, adapter, x, y, eps=0.0)

    def test_against_independent_fd_oracle(self):
        for seed in range(5):
            W0, adapter, x, y = self._instance(seed=seed, d=5, k=6, r=2)
            grad_A, grad_B = analytic_gradients(W0, adapter, x, y)
            fd_A, fd_B = oracle_fd_gradient(
                W0.tolist(), adapter.A.tolist(), adapter.B.tolist(), x.tolist(), y.tolist()
            )
            assert np.allclose(grad_A, fd_A, rtol=1e-4, atol=1e-6)
            assert np.allclose(grad_B, fd_B, rtol=1e-4, atol=1e-6)


class TestToyFit:
    def _planted(self, seed=0, d=16, k=16, r=2, scale=0.5):
        rng = np.random.default_rng(seed)
        W0 = rng.standard_normal((d, k))
        delta = scale * (rng.standard_normal((d, r)) @ rng.standard_normal((r, k)))
        return W0, W0 + delta

    def test_target_equals_base(self):
        rng = np.random.default_rng(7)
        W0 = rng.standard_normal((8, 8))
        adapter, losses = adapter_fit_toy(W0, W0.copy(), r=2, steps=10, lr=0.01, seed=0)
        assert losses[0] == pytest.approx(0.0, abs=1e-6)

    def test_planted_delta_recovered(self):
        W0, target = self._planted()
        digest = matrix_digest(W0)
        adapter, losses = adapter_fit_toy(W0, target, r=2, steps=500, lr=0.01, seed=0)
        assert losses[-1] <= 0.01 * losses[0]
        assert matrix_digest(W0) == digest
        # Planted-solution oracle: the delta has exact rank r, so the best
        # rank-r fit has zero residual; the descent must approach it.
        best = np.linalg.norm(target - (W0 + adapter.B @ adapter.A)) ** 2 / 2
        assert best <= 0.01 * losses[0]

    def test_divergence_on_absurd_lr(self):
        W0, target = self._planted()
        with pytest.raises(ForgeError, match="loss grew for 10 consecutive steps"):
            adapter_fit_toy(W0, target, r=2, steps=500, lr=1e3, seed=0)

    def test_w0_never_mutated_random_seeds(self):
        for seed in range(3):
            W0, target = self._planted(seed=seed)
            before = W0.copy()
            adapter_fit_toy(W0, target, r=2, steps=50, lr=0.01, seed=seed)
            assert np.array_equal(W0, before)


class TestVerify:
    def test_five_checks_pass_in_order(self):
        rows = verify(0)
        assert [name for name, _, _ in rows] == [
            "zero-init identity",
            "dense equivalence",
            "gradient check",
            "parameter accounting",
            "frozen-base toy fit",
        ]
        assert all(ok is True for _, ok, _ in rows)
        assert rows[0][2] == "max rel err 0.00e+00"
        assert rows[3][2] == "4096x32: 8,388,608, 5120x40: 13,107,200, 6656x60: 25,559,040"

    def test_same_seed_same_rows(self):
        assert verify(7) == verify(7)
