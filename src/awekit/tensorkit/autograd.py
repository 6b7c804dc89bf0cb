"""Reverse-mode autodiff over dense numpy arrays.

A Tensor wraps an ndarray value plus a gradient buffer and a backward
closure; Tensor.backward() runs the chain rule over the recorded graph in
reverse topological order. Production paths run in float32; a global
float64 mode exists for gradient checking.
"""

import contextlib

import numpy as np

from ..errors import ShapeError

_DTYPE = np.float32


def default_dtype():
    return _DTYPE


@contextlib.contextmanager
def float64_mode():
    """Run everything in float64 (gradient-check mode)."""
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.float64
    try:
        yield
    finally:
        _DTYPE = prev


def asarray(x) -> np.ndarray:
    return np.asarray(x, dtype=_DTYPE)


class Tensor:
    """`requires_grad=False` marks a leaf whose gradient nothing reads, such
    as the network input: its `grad` stays None and conv2d skips computing it."""

    __slots__ = ("value", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, value, parents=(), backward=None, requires_grad=True):
        self.value = asarray(value)
        self.grad = None
        self.requires_grad = requires_grad
        self._prev = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, g):
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(g, dtype=self.value.dtype, order="C")
        else:
            self.grad += g

    def backward(self):
        if self.value.shape != ():
            raise ShapeError(f"backward() needs a scalar, got shape {self.value.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.array(1.0, dtype=self.value.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __add__(self, other):
        if self.value.shape != other.value.shape:
            raise ShapeError(f"add shapes differ: {self.value.shape} vs {other.value.shape}")
        out = Tensor(self.value + other.value, (self, other))

        def backward(g):
            self._accumulate(g)
            other._accumulate(g)

        out._backward = backward
        return out

    def scale(self, c: float):
        out = Tensor(self.value * c, (self,))

        def backward(g):
            self._accumulate(g * c)

        out._backward = backward
        return out

    def __getitem__(self, rows):
        """Row slice; backward scatters the gradient into zeros."""

        def backward(g):
            full = np.zeros_like(self.value)
            full[rows] = g
            self._accumulate(full)

        return Tensor(self.value[rows], (self,), backward)
