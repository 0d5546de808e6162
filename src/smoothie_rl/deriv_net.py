"""Feed-forward networks that carry exact action derivatives through the forward pass.

A ``DerivNet`` maps (state, action) to an output vector while propagating,
layer by layer, the Jacobian G and Hessian H of every unit with respect to
the action coordinates:

    affine   z = W x + b        Gz = W Gx          Hz = W Hx
    pointwise o = f(z)          Go = f'(z) Gz      Ho = f''(z) Gz Gz^T + f'(z) Hz

The action enters by concatenation at a configurable layer index; its rows
of G are seeded with the identity and its rows of H with zeros.  G and H are
identically zero before that layer, so propagation starts there.
Activations on any layer at or after the injection point must be twice
differentiable, so relu there is rejected at construction.

Inside the pass the action axes come first: G is a C-contiguous
(d_a, batch, width) array and H a (d_a, d_a, batch, width) one, so each
elementwise product runs along the layer width and each affine step is one
matrix product with W^T.  An identity layer passes Gz and Hz through
unchanged.  The result is handed back as (batch, out, d_a) and
(batch, out, d_a, d_a) views.

Each net keeps all of its parameters in one flat array; every layer's
weight and bias are views into it, so reading, writing and averaging the
parameters never gathers per-layer arrays.

The module also carries the small optimization toolkit used by the trainers:
a hand-rolled Adam step, Polyak averaging, a once-differentiable Huber loss,
global-norm clipping, and a flat-array checkpoint format.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite values."""


_ACTIVATIONS = ("tanh", "relu", "identity")


def _constant(value: float) -> np.ndarray:
    c = np.full((1, 1), value)
    c.flags.writeable = False
    return c


# Constant derivatives, broadcast against (batch, width) activations.
_ONE = _constant(1.0)
_ZERO = _constant(0.0)


def _activate(name: str, z: np.ndarray, order: int):
    """Return (f(z), f'(z), f''(z)), the derivatives broadcastable against z.

    Derivatives above ``order`` that cost work to compute come back as None.
    """
    if name == "tanh":
        t = np.tanh(z)
        fp = 1.0 - t * t if order >= 1 else None
        return t, fp, (-2.0 * t * fp if order >= 2 else None)
    if name == "relu":
        fp = (z > 0.0).astype(float) if order >= 1 else None
        return np.maximum(z, 0.0), fp, _ZERO
    if name == "identity":
        return z, _ONE, _ZERO
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    @property
    def in_width(self) -> int:
        return self.weight.shape[1]

    @property
    def out_width(self) -> int:
        return self.weight.shape[0]


def _init_layer(in_width: int, out_width: int, activation: str, rng: np.random.Generator) -> Layer:
    bound = 1.0 / np.sqrt(max(in_width, 1))
    w = rng.uniform(-bound, bound, size=(out_width, in_width))
    b = rng.uniform(-bound, bound, size=out_width)
    return Layer(weight=w, bias=b, activation=activation)


@dataclass
class ForwardTriple:
    """Output value plus its Jacobian and Hessian in the action coordinates."""

    value: np.ndarray
    jacobian: np.ndarray
    hessian: np.ndarray


class DerivNet:
    """MLP over a (state, action) input split with forward-mode action derivatives."""

    def __init__(self, state_dim: int, action_dim: int, layers: list[Layer], action_layer: int = 0):
        if state_dim < 0 or action_dim < 0:
            raise ValueError("negative input widths")
        if not layers:
            raise ValueError("need at least one layer")
        if action_dim > 0 and not (0 <= action_layer < len(layers)):
            raise ValueError(f"action_layer {action_layer} out of range")
        expected = state_dim
        for k, layer in enumerate(layers):
            if layer.activation not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {layer.activation!r}")
            width = expected + (action_dim if (action_dim > 0 and k == action_layer) else 0)
            if layer.in_width != width:
                raise ValueError(
                    f"layer {k} expects input width {layer.in_width}, composition gives {width}"
                )
            if action_dim > 0 and k >= action_layer and layer.activation == "relu":
                raise ValueError(
                    "relu is not twice differentiable and cannot sit on the action path"
                )
            expected = layer.out_width
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.layers = layers
        self.action_layer = action_layer if action_dim > 0 else 0
        self.out_dim = layers[-1].out_width
        self._params = np.concatenate(
            [np.concatenate([np.ravel(l.weight), l.bias]) for l in layers]
        ).astype(float)
        self._bind_layers()

    # ---------------------------------------------------------------- params

    def _layer_views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias) views into a flat parameter-shaped array."""
        views = []
        i = 0
        for l in self.layers:
            n_out, n_in = l.weight.shape
            w = flat[i : i + n_out * n_in].reshape(n_out, n_in)
            i += n_out * n_in
            views.append((w, flat[i : i + n_out]))
            i += n_out
        return views

    def _bind_layers(self) -> None:
        for l, (w, b) in zip(self.layers, self._layer_views(self._params)):
            l.weight, l.bias = w, b

    def __setstate__(self, state) -> None:
        # deepcopy and unpickling copy each layer array on its own; point the
        # layers back at this net's flat array so they stay aliased to it.
        self.__dict__.update(state)
        self._bind_layers()

    @property
    def n_params(self) -> int:
        return self._params.size

    def get_params(self) -> np.ndarray:
        return self._params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        self._params[:] = flat

    def clone(self) -> "DerivNet":
        return copy.deepcopy(self)

    def dims_header(self) -> str:
        widths = [self.state_dim + self.action_dim] + [l.out_width for l in self.layers]
        return ",".join(str(w) for w in widths)

    # --------------------------------------------------------------- forward

    def _promote(self, state, action):
        state = np.asarray(state, dtype=float)
        single = state.ndim == 1
        if single:
            state = state[None, :]
        if state.shape[1] != self.state_dim:
            raise ValueError(f"state width {state.shape[1]} != {self.state_dim}")
        if self.action_dim == 0:
            act = np.zeros((state.shape[0], 0))
        else:
            if action is None:
                raise ValueError("action required")
            act = np.asarray(action, dtype=float)
            if act.ndim == 1:
                act = act[None, :]
            if act.shape != (state.shape[0], self.action_dim):
                raise ValueError(
                    f"action shape {act.shape} incompatible with ({state.shape[0]}, {self.action_dim})"
                )
        return state, act, single

    def _forward_core(self, x, act, want_derivs: bool, want_cache: bool):
        B = x.shape[0]
        da = self.action_dim
        G = H = None  # (d_a, B, width) and (d_a, d_a, B, width); zero until the action is injected
        cache = [] if want_cache else None
        h = x
        for k, layer in enumerate(self.layers):
            injected = da > 0 and k == self.action_layer
            if injected:
                h = np.concatenate([h, act], axis=1)
            z = h @ layer.weight.T + layer.bias
            on_path = want_derivs and (injected or G is not None)
            f, fp, fpp = _activate(layer.activation, z, 2 if on_path else int(want_cache))
            if want_cache:
                cache.append((h, fp))
            if on_path:
                w = layer.out_width
                if injected:
                    # G is [0; I] and H is 0 here, so Gz is the action block of W.
                    Gz = np.ascontiguousarray(layer.weight[:, h.shape[1] - da :].T)[:, None, :]
                    Hz = None  # zero
                else:
                    Gz = (G.reshape(-1, G.shape[-1]) @ layer.weight.T).reshape(da, B, w)
                    Hz = (H.reshape(-1, H.shape[-1]) @ layer.weight.T).reshape(da, da, B, w)
                if layer.activation == "identity":
                    G = np.broadcast_to(Gz, (da, B, w))
                    H = np.zeros((da, da, B, w)) if Hz is None else Hz
                else:
                    G = fp * Gz
                    H = fpp * (Gz[:, None] * Gz[None, :])
                    if Hz is not None:
                        Hz *= fp
                        H += Hz
            h = f
        if not want_derivs:
            return h, None, None, cache
        if G is None:  # no action input
            G, H = np.zeros((0, B, self.out_dim)), np.zeros((0, 0, B, self.out_dim))
        return h, G.transpose(1, 2, 0), H.transpose(2, 3, 0, 1), cache

    def forward(self, state, action=None) -> np.ndarray:
        state, act, single = self._promote(state, action)
        h, _, _, _ = self._forward_core(state, act, want_derivs=False, want_cache=False)
        return h[0] if single else h

    def forward_with_action_derivs(self, state, action=None) -> ForwardTriple:
        state, act, single = self._promote(state, action)
        h, G, H, _ = self._forward_core(state, act, want_derivs=True, want_cache=False)
        if single:
            return ForwardTriple(value=h[0], jacobian=G[0], hessian=H[0])
        return ForwardTriple(value=h, jacobian=G, hessian=H)

    def param_vjp(self, state, action):
        """Forward output and a function mapping a cotangent to the parameter gradient.

        The batch output comes back as computed by one forward pass, so a loss
        whose cotangent depends on it costs no second pass.  The returned
        function gives the gradient of sum_b cotangent_b . output_b with
        respect to the flat parameters, for a (batch, out) cotangent.
        """
        state, act, _ = self._promote(state, action)
        out, _, _, cache = self._forward_core(state, act, want_derivs=False, want_cache=True)

        def vjp(cotangent) -> np.ndarray:
            cot = np.asarray(cotangent, dtype=float)
            if cot.shape != out.shape:
                raise ValueError(f"cotangent shape {cot.shape} != {out.shape}")
            grad = np.empty(self.n_params)
            views = self._layer_views(grad)
            delta = cot
            for k in range(len(self.layers) - 1, -1, -1):
                h_in, fp = cache[k]
                dz = delta * fp
                gw, gb = views[k]
                gw[...] = dz.T @ h_in
                gb[...] = dz.sum(axis=0)
                if k > 0:
                    delta = dz @ self.layers[k].weight
                    if self.action_dim > 0 and k == self.action_layer:
                        delta = delta[:, : delta.shape[1] - self.action_dim]
            return grad

        return out, vjp

    def param_gradient(self, state, action, cotangent) -> np.ndarray:
        """Gradient of sum_b cotangent_b . output_b with respect to the flat parameters."""
        cot = np.asarray(cotangent, dtype=float)
        if np.ndim(state) == 1:
            cot = cot[None, :] if cot.ndim == 1 else cot.reshape(1, -1)
        _, vjp = self.param_vjp(state, action)
        return vjp(cot)


# ------------------------------------------------------------------ builders


def critic_net(
    state_dim: int,
    action_dim: int,
    hidden: tuple[int, ...] = (64, 64),
    rng: np.random.Generator | None = None,
) -> DerivNet:
    """State embedding, then action concatenation, tanh throughout, scalar output."""
    if len(hidden) < 2:
        raise ValueError("critic needs at least two hidden layers")
    rng = rng or np.random.default_rng(0)
    layers = [_init_layer(state_dim, hidden[0], "tanh", rng)]
    prev = hidden[0] + action_dim
    for w in hidden[1:]:
        layers.append(_init_layer(prev, w, "tanh", rng))
        prev = w
    layers.append(_init_layer(prev, 1, "identity", rng))
    return DerivNet(state_dim, action_dim, layers, action_layer=1)


def actor_net(
    state_dim: int,
    action_dim: int,
    hidden: tuple[int, ...] = (64, 64),
    rng: np.random.Generator | None = None,
) -> DerivNet:
    """State to action mean, relu hidden layers, linear output."""
    rng = rng or np.random.default_rng(0)
    layers = []
    prev = state_dim
    for w in hidden:
        layers.append(_init_layer(prev, w, "relu", rng))
        prev = w
    layers.append(_init_layer(prev, action_dim, "identity", rng))
    return DerivNet(state_dim, 0, layers, action_layer=0)


# ----------------------------------------------------------------- optimizer


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # Two parameter-sized scratch arrays, allocated by the first step.
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    @classmethod
    def for_params(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(params: np.ndarray, grads: np.ndarray, lr: float, state: AdamState) -> np.ndarray:
    """One Adam descent step; updates ``state.m`` and ``state.v`` in place and
    returns the updated parameters as a new array.

    The arithmetic is that of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``params - lr*mhat / (sqrt(vhat) + eps)``, operation for operation.
    """
    grads = np.asarray(grads, dtype=float)
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} != params shape {params.shape}")
    if not np.all(np.isfinite(grads)):
        raise DivergenceError("non-finite gradient in adam_step")
    if state.scratch is None or state.scratch[0].shape != grads.shape:
        state.scratch = (np.empty_like(grads), np.empty_like(grads))
    a, b = state.scratch
    m, v = state.m, state.v
    state.t += 1
    m *= state.beta1
    m += np.multiply(grads, 1.0 - state.beta1, out=a)
    np.multiply(grads, 1.0 - state.beta2, out=a)
    v *= state.beta2
    v += np.multiply(a, grads, out=a)
    np.divide(m, 1.0 - state.beta1**state.t, out=a)  # mhat
    a *= lr
    np.divide(v, 1.0 - state.beta2**state.t, out=b)  # vhat
    np.sqrt(b, out=b)
    b += state.eps
    a /= b
    return params - a


def polyak_update(target: np.ndarray, online: np.ndarray, tau: float) -> np.ndarray:
    """(1 - tau) * target + tau * online."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return (1.0 - tau) * target + tau * online


def huber(residual, clip: float):
    """Value and derivative of the Huber loss, quadratic inside +-clip, linear outside."""
    if clip <= 0.0:
        raise ValueError(f"huber clip must be positive, got {clip}")
    r = np.asarray(residual, dtype=float)
    inside = np.abs(r) <= clip
    value = np.where(inside, 0.5 * r * r, clip * (np.abs(r) - 0.5 * clip))
    deriv = np.where(inside, r, clip * np.sign(r))
    return value, deriv


def clip_global_norm(g: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.linalg.norm(g))
    if max_norm > 0.0 and norm > max_norm:
        return g * (max_norm / norm)
    return g


# --------------------------------------------------------------- checkpoints


def save_params(net: DerivNet, path) -> None:
    """Write ``dims=...`` header line, then the flat parameters as little-endian float64."""
    flat = net.get_params().astype("<f8")
    with open(path, "wb") as fh:
        fh.write(f"dims={net.dims_header()}\n".encode("ascii"))
        fh.write(flat.tobytes())


def load_params(net: DerivNet, path) -> None:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        blob = fh.read()
    prefix = "dims="
    if not header.startswith(prefix):
        raise ValueError(f"bad checkpoint header {header!r}")
    if header[len(prefix) :] != net.dims_header():
        raise ValueError(
            f"checkpoint dims {header[len(prefix):]} do not match net dims {net.dims_header()}"
        )
    flat = np.frombuffer(blob, dtype="<f8")
    if flat.shape[0] != net.n_params:
        raise ValueError(f"checkpoint holds {flat.shape[0]} values, net has {net.n_params}")
    net.set_params(flat.astype(float))
