"""Adaptive moment estimation on tensor parameters.

Standard first/second moment scheme with bias correction.  Updates happen
in place on each parameter's data array, in that array's dtype.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class Adam:
    def __init__(
        self,
        params: list,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params: list[Tensor] = list(params)
        self.lr = float(lr)
        if not (np.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError(f"learning rate must be finite and >= 0, got {lr}")
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (self.lr / bc1) * m / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - update.astype(p.data.dtype, copy=False)
