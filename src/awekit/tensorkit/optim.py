"""SGD with Nesterov momentum."""

from ..errors import ShapeError


def sgd_nesterov_step(params, grads, velocity, lr, momentum):
    """One Nesterov-momentum SGD step over a dict of named arrays.

    Per parameter: v <- mu*v - lr*g, then theta <- theta + mu*v - lr*g
    (the look-ahead form of Nesterov accelerated gradient). Updates
    params and velocity in place and returns them.
    """
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"grad shape {g.shape} vs param {p.shape} for {name}")
        v = velocity[name]
        v *= momentum
        v -= lr * g
        p += momentum * v - lr * g
    return params, velocity
