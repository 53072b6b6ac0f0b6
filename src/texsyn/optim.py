"""Adaptive moment estimation on tensor parameters.

Standard first/second moment scheme with bias correction.  ``step`` takes
one gradient per parameter, as :func:`autodiff.backward` returns them, and
replaces each parameter's data array, in that array's dtype.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


BETA1, BETA2 = 0.9, 0.999  # moment decay rates
EPS = 1e-8


class Adam:
    def __init__(self, params: list, lr: float):
        self.params: list[Tensor] = list(params)
        self.lr = float(lr)
        if not (np.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError(f"learning rate must be finite and >= 0, got {lr}")
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: list) -> None:
        if len(grads) != len(self.params):
            raise ValueError(f"got {len(grads)} gradients for {len(self.params)} parameters")
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = (self.lr / bc1) * m / (np.sqrt(v / bc2) + EPS)
            p.data = p.data - update.astype(p.data.dtype, copy=False)
