"""Finite-difference gradient checker shared by the gradient tests."""

import numpy as np

from awekit.errors import ValidationError


def grad_check(loss_fn, params, h=1e-5, max_coords=None, rng=None):
    """Max relative error between analytic and central-difference gradients.

    loss_fn() must rebuild the graph from the leaf Tensors in `params`
    (a dict name -> Tensor) and return a scalar Tensor. Run inside
    float64_mode for meaningful tolerances.
    """
    for t in params.values():
        t.grad = None
    loss = loss_fn()
    if not np.isfinite(loss.value):
        raise ValidationError(f"loss is non-finite: {loss.value}")
    loss.backward()
    analytic = {name: np.array(t.grad) for name, t in params.items()}

    worst = 0.0
    for name, t in params.items():
        flat = t.value.reshape(-1)
        coords = range(flat.size)
        if max_coords is not None and flat.size > max_coords:
            rng = rng or np.random.default_rng(0)
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            hi = float(loss_fn().value)
            flat[i] = orig - h
            lo = float(loss_fn().value)
            flat[i] = orig
            fd = (hi - lo) / (2 * h)
            an = analytic[name].reshape(-1)[i]
            err = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, err)
    return worst
