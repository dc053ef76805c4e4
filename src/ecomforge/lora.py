"""Low-rank adapter mathematics over a frozen base matrix.

The adapted forward pass is ``h = W0 x + B (A x)``: the base matrix W0 stays
read-only while the rank-r pair (A, B) trains. B starts at zero so the
adapted model is exactly the base model at initialization; A starts Gaussian.
No alpha/r scaling is applied. ``verify`` runs the checks that
``forge lora-verify`` prints.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .core import ForgeError

ATTENTION_TARGETS = ("W_q", "W_k", "W_v", "W_o")


@dataclass
class LoraAdapter:
    """Trainable low-rank pair for one d x k base matrix."""

    A: np.ndarray  # (r, k)
    B: np.ndarray  # (d, r)
    d: int
    k: int
    r: int

    def __post_init__(self) -> None:
        if self.A.shape != (self.r, self.k) or self.B.shape != (self.d, self.r):
            raise ForgeError(
                f"A{self.A.shape}/B{self.B.shape} inconsistent with d={self.d}, "
                f"k={self.k}, r={self.r}"
            )
        if not 1 <= self.r <= min(self.d, self.k):
            raise ForgeError(f"rank {self.r} outside [1, min({self.d}, {self.k})]")


def lora_init(d: int, k: int, r: int, seed: int = 0, sigma: float = 0.02) -> LoraAdapter:
    """Zero B, Gaussian(0, sigma^2) A, from a seeded generator."""
    if r < 1 or r > min(d, k):
        raise ForgeError(f"rank {r} outside [1, min({d}, {k})]")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    rng = np.random.default_rng(seed)
    A = rng.normal(0.0, sigma, size=(r, k))
    B = np.zeros((d, r))
    return LoraAdapter(A=A, B=B, d=d, k=k, r=r)


def lora_forward(W0: np.ndarray, adapter: LoraAdapter, x: np.ndarray) -> np.ndarray:
    """h = W0 x + B (A x), keeping the intermediate r-dimensional."""
    x = np.asarray(x)
    if W0.shape != (adapter.d, adapter.k):
        raise ForgeError(f"W0 shape {W0.shape}, expected ({adapter.d}, {adapter.k})")
    if x.shape != (adapter.k,):
        raise ForgeError(f"x shape {x.shape}, expected ({adapter.k},)")
    return W0 @ x + adapter.B @ (adapter.A @ x)


def lora_param_count(d_model: int, r: int, n_layers: int) -> int:
    """Trainable parameters when adapting the square d_model attention
    projections: each of ATTENTION_TARGETS contributes r*(d_model + d_model)
    per layer."""
    if d_model < 1 or n_layers < 1 or r < 0:
        raise ValueError("d_model and n_layers must be positive, r >= 0")
    return n_layers * len(ATTENTION_TARGETS) * r * (d_model + d_model)


def _loss(W0: np.ndarray, A: np.ndarray, B: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    h = W0 @ x + B @ (A @ x)
    return 0.5 * float(np.sum((h - y) ** 2))


def analytic_gradients(
    W0: np.ndarray, adapter: LoraAdapter, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form adapter gradients of 0.5*||h - y||^2: the A gradient is
    the outer product of B^T(h-y) with x, the B gradient of (h-y) with Ax."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != (adapter.d,):
        raise ForgeError(f"y shape {y.shape}, expected ({adapter.d},)")
    residual = lora_forward(W0, adapter, x) - y
    grad_A = np.outer(adapter.B.T @ residual, x)  # (r, k)
    grad_B = np.outer(residual, adapter.A @ x)  # (d, r)
    return grad_A, grad_B


def grad_check(
    W0: np.ndarray,
    adapter: LoraAdapter,
    x: np.ndarray,
    y: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Compare analytic adapter gradients of 0.5*||h - y||^2 against central
    finite differences, entrywise; returns the max relative error."""
    if not 0 < eps <= 1e-3:
        raise ValueError("eps must be in (0, 1e-3]")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grad_A, grad_B = analytic_gradients(W0, adapter, x, y)

    max_rel = 0.0
    for grad, M in ((grad_A, adapter.A), (grad_B, adapter.B)):
        it = np.nditer(M, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = M[idx]
            M[idx] = orig + eps
            up = _loss(W0, adapter.A, adapter.B, x, y)
            M[idx] = orig - eps
            down = _loss(W0, adapter.A, adapter.B, x, y)
            M[idx] = orig
            fd = (up - down) / (2 * eps)
            scale = max(abs(grad[idx]), abs(fd), 1e-8)
            max_rel = max(max_rel, abs(grad[idx] - fd) / scale)
    return max_rel


def matrix_digest(M: np.ndarray) -> str:
    """Content hash used to prove the base matrix never changes."""
    buf = np.ascontiguousarray(M, dtype=np.float64)
    return hashlib.sha256(buf.tobytes()).hexdigest()


def adapter_fit_toy(
    W0: np.ndarray,
    target_W: np.ndarray,
    r: int,
    steps: int = 500,
    lr: float = 0.01,
    seed: int = 0,
    sigma: float = 0.02,
) -> tuple[LoraAdapter, list[float]]:
    """Gradient descent on 0.5*||W0 + BA - target||_F^2, updating only the
    adapter. W0 is bit-identical before and after. Raises ForgeError when
    the loss grows for 10 consecutive steps."""
    if lr <= 0:
        raise ValueError("lr must be > 0")
    if W0.shape != target_W.shape:
        raise ForgeError(f"W0 {W0.shape} vs target {target_W.shape}")
    d, k = W0.shape
    adapter = lora_init(d, k, r, seed=seed, sigma=sigma)
    A, B = adapter.A, adapter.B
    losses: list[float] = []
    growth_streak = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            residual = W0 + B @ A - target_W
            loss = 0.5 * float(np.sum(residual**2))
            losses.append(loss)
            if len(losses) > 1 and (not np.isfinite(loss) or loss > losses[-2]):
                growth_streak += 1
                if growth_streak >= 10:
                    raise ForgeError(f"loss grew for {growth_streak} consecutive steps")
            else:
                growth_streak = 0
            grad_A = B.T @ residual
            grad_B = residual @ A.T
            A -= lr * grad_A
            B -= lr * grad_B
    return LoraAdapter(A=A, B=B, d=d, k=k, r=r), losses


# Published rank-8 parameter counts of the 7b, 13b and 30b bases, by (d_model, layers).
PUBLISHED_COUNTS = {(4096, 32): 8_388_608, (5120, 40): 13_107_200, (6656, 60): 25_559_040}


def _dense_rel_err(rng: np.random.Generator, high: int, draw_b: bool) -> float:
    """Worst relative error of ``lora_forward`` against the dense product
    (W0 + BA) x over 100 random shapes with dimensions in [2, high). B keeps
    its zero init unless ``draw_b``; at zero, (W0 + BA) x is exactly W0 x."""
    worst = 0.0
    for _ in range(100):
        d, k = int(rng.integers(2, high)), int(rng.integers(2, high))
        r = int(rng.integers(1, min(d, k) + 1))
        W0 = rng.standard_normal((d, k))
        x = rng.standard_normal(k)
        adapter = lora_init(d, k, r, seed=int(rng.integers(0, 2**31)))
        if draw_b:
            adapter.B[:] = rng.standard_normal((d, r))
        dense = (W0 + adapter.B @ adapter.A) @ x
        err = float(np.max(np.abs(lora_forward(W0, adapter, x) - dense)))
        worst = max(worst, err / max(float(np.max(np.abs(dense))), 1e-12))
    return worst


def verify(seed: int) -> list[tuple[str, bool, str]]:
    """The adapter-math checks, as (name, passed, detail) rows in a fixed
    order; every random draw comes from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    rows = []
    for name, high, draw_b in (("zero-init identity", 33, False), ("dense equivalence", 65, True)):
        worst = _dense_rel_err(rng, high, draw_b)
        rows.append((name, worst <= 1e-12, f"max rel err {worst:.2e}"))

    adapter = lora_init(8, 8, 2, seed=seed, sigma=0.5)
    adapter.B[:] = rng.standard_normal((8, 2))
    W0, x, y = rng.standard_normal((8, 8)), rng.standard_normal(8), rng.standard_normal(8)
    err = float(grad_check(W0, adapter, x, y, eps=1e-5))
    rows.append(("gradient check", err <= 1e-4, f"max rel err {err:.2e}"))

    counts = {shape: lora_param_count(shape[0], 8, shape[1]) for shape in PUBLISHED_COUNTS}
    detail = ", ".join(f"{d}x{n}: {c:,}" for (d, n), c in counts.items())
    rows.append(("parameter accounting", counts == PUBLISHED_COUNTS, detail))

    W0 = rng.standard_normal((16, 16))
    U = rng.standard_normal((16, 2))
    V = rng.standard_normal((2, 16))
    target = W0 + 0.5 * (U @ V)
    digest_before = matrix_digest(W0)
    _, losses = adapter_fit_toy(W0, target, r=2, steps=500, lr=0.01, seed=seed)
    ratio = losses[-1] / losses[0]
    digest_ok = matrix_digest(W0) == digest_before
    detail = f"loss ratio {ratio:.2e}, base digest {'unchanged' if digest_ok else 'CHANGED'}"
    rows.append(("frozen-base toy fit", ratio <= 0.01 and digest_ok, detail))
    return rows
