"""Trainable parameters, the flat parameter set, and the SGD optimizer."""

from __future__ import annotations

import numpy as np

from .scenes import check_real

__all__ = ["Parameter", "ParamSet", "SGD", "NonFiniteGradientError"]


class NonFiniteGradientError(RuntimeError):
    """Raised when a parameter gradient contains NaN or infinity."""

    def __init__(self, param_name: str):
        super().__init__(f"non-finite gradient for parameter '{param_name}'")
        self.param_name = param_name


class Parameter:
    """A named value/gradient pair. The gradient starts at zero and is
    accumulated into by backward passes."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value):
        self.name = name
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class ParamSet(tuple):
    """A tuple of parameters whose ``value`` and ``grad`` are re-seated, with
    their current contents, as views of two flat vectors ``values`` and
    ``grads``, so an operation on every parameter is one array operation.
    A ``Parameter`` belongs to one set: a second set takes its views over."""

    def __new__(cls, params):
        self = super().__new__(cls, params)
        self.values = np.concatenate([p.value.ravel() for p in self])
        self.grads = np.concatenate([p.grad.ravel() for p in self])
        start = 0
        for p in self:
            end = start + p.value.size
            p.value = self.values[start:end].reshape(p.value.shape)
            p.grad = self.grads[start:end].reshape(p.grad.shape)
            start = end
        return self


class SGD:
    """SGD with momentum and L2 weight decay over a :class:`ParamSet`.

    Per step: ``v = momentum*v + grad + weight_decay*param`` then
    ``param -= lr*v``; gradients are zeroed afterwards. A non-finite gradient
    or step ``lr`` aborts the step before any parameter or velocity is touched.
    """

    def __init__(self, params, lr: float, momentum: float, weight_decay: float):
        check_real("lr", lr, 0, ends="(]")
        check_real("momentum", momentum)
        check_real("weight_decay", weight_decay)
        self.params = params
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = np.zeros_like(params.values)

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        check_real("lr", lr, 0, ends="(]")
        ps, v = self.params, self._velocity
        if not np.isfinite(ps.grads).all():
            raise NonFiniteGradientError(next(p.name for p in ps if not np.isfinite(p.grad).all()))
        v *= self.momentum
        v += ps.grads
        if self.weight_decay:  # the products go to the grad buffer, zeroed below
            v += np.multiply(self.weight_decay, ps.values, out=ps.grads)
        ps.values -= np.multiply(lr, v, out=ps.grads)
        ps.grads[:] = 0.0
