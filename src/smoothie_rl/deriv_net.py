"""Feed-forward networks that return exact action derivatives with their output.

A ``DerivNet`` maps (state, action) to an output vector.  An action net has
one layout, the DDPG critic's (Lillicrap et al. 2015): state layers, then the
action concatenated onto the input of the last hidden layer, a tanh, then a
linear output layer.  The constructor rejects any other layout for a net with
an action input.  With z = Ws h + Wa a + b and f = tanh(z) at that layer, and
y = Wo f + bo at the output, z is affine in the action and y linear in f, so

    G_oi  = dy_o / da_i          = sum_k f'_k  Wo_ok Wa_ki
    H_oij = d2y_o / da_i da_j    = sum_k f''_k Wo_ok Wa_ki Wa_kj

with f' = 1 - f^2 and f'' = -2 f f'.  The pass records f' and f'' at that
layer and forms each as one matrix product:

    G = f' @ (Wa * Wo^T)             (batch, width) @ (width, out d_a)
    H = f'' @ (Wa_i Wa_j * Wo^T)     (batch, width) @ (width, out d_a^2)

Wa_i Wa_j is formed before the product with Wo, so H is exactly symmetric.
A net without an action input (the actor) may use relu; it has no action
derivatives, and ``forward_with_action_derivs`` rejects it.

Each net keeps all of its parameters in one flat array, ``DerivNet.params``;
every layer's weight and bias are views into it, so reading, writing and
averaging the parameters never gathers per-layer arrays.  ``adam_step`` and
``polyak_update`` write their result into their first argument, so the
trainers step and average ``net.params`` in place and the layers see the new
values at once.  ``get_params`` copies and ``set_params`` writes through, for
callers that want a snapshot.  The invariant every pass relies on: layer
arrays are views of ``params`` and are never rebound; write into them, never
assign new arrays to ``Layer.weight`` or ``Layer.bias``.

Every pass runs from one layer plan that ``_bind_layers`` builds when the net
is made and again after ``__setstate__`` (so after ``clone``, deepcopy and
unpickling).  A plan entry holds the layer's weight, its transpose view, its
bias, its activation and width, whether the action is injected there, and
the offsets of its slice of a flat gradient.  The affine step is
``z = h.dot(W.T)`` followed by an in-place ``z += b``; tanh and relu
overwrite ``z`` in place; the vjp writes each layer's weight gradient
straight into its slice of the flat gradient.  Every product of the forward
pass, of G and H and of the vjp's backward delta is ``ndarray.dot``, which
costs a fraction of ``@``'s dispatch on these small matrices and gives the
same bits.  The weight gradient alone stays ``np.matmul(dz.T, h_in,
out=...)``: when the caller's cotangent is a broadcast (stride-0) column,
``np.dot`` rounds that product differently, and a trajectory moved in its
last bits.  The public entry points validate their inputs on every call;
they skip the float64 conversion of an input that is already a float64
ndarray.

The module also carries the small optimization toolkit used by the trainers:
a hand-rolled Adam step, Polyak averaging, a once-differentiable Huber loss,
global-norm clipping, and a flat-array checkpoint format.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite values."""


_FLOAT64 = np.dtype(np.float64)


def as_float64(x) -> np.ndarray:
    """``x`` as a float64 ndarray, returned as it is when it already is one."""
    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return x
    return np.asarray(x, dtype=float)


_ACTIVATIONS = ("tanh", "relu", "identity")


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
    hessian: np.ndarray | None  # None from a Jacobian-only pass


class DerivNet:
    """MLP over a (state, action) input split with exact action derivatives."""

    def __init__(self, state_dim: int, action_dim: int, layers: list[Layer]):
        if state_dim < 0 or action_dim < 0:
            raise ValueError("negative input widths")
        if not layers:
            raise ValueError("need at least one layer")
        tail = [l.activation for l in layers[-2:]]
        if action_dim > 0 and tail != ["tanh", "identity"]:
            raise ValueError(
                "an action net takes the action at a tanh last hidden layer followed by an "
                f"identity output layer; its last layers are {tail}"
            )
        expected = state_dim
        for k, layer in enumerate(layers):
            if layer.activation not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {layer.activation!r}")
            width = expected + (action_dim if k == len(layers) - 2 else 0)
            if layer.in_width != width:
                raise ValueError(
                    f"layer {k} expects input width {layer.in_width}, composition gives {width}"
                )
            expected = layer.out_width
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.layers = layers
        self.out_dim = layers[-1].out_width
        self._params = np.concatenate(
            [np.concatenate([np.ravel(l.weight), l.bias]) for l in layers]
        ).astype(float)
        self._bind_layers()

    # ---------------------------------------------------------------- params

    def _bind_layers(self) -> None:
        """Point every layer at its slice of ``params`` and build the layer plan.

        Each plan entry holds what one layer's pass reads: the weight, its
        transpose view, the bias, the activation, the width, whether the action
        is concatenated onto the layer's input, and the (weight start, bias
        start, bias end) offsets of the layer's slice of a flat gradient.
        """
        plan = []
        i = 0
        for k, l in enumerate(self.layers):
            n_out, n_in = l.weight.shape
            j = i + n_out * n_in
            l.weight = self._params[i:j].reshape(n_out, n_in)
            l.bias = self._params[j : j + n_out]
            injected = self.action_dim > 0 and k == len(self.layers) - 2
            plan.append((l.weight, l.weight.T, l.bias, l.activation, n_out, injected, (i, j, j + n_out)))
            i = j + n_out
        self._plan = plan

    def __setstate__(self, state) -> None:
        # deepcopy and unpickling copy each layer array on its own; point the
        # layers and the plan back at this net's flat array so they stay
        # aliased to it.
        self.__dict__.update(state)
        self._bind_layers()

    @property
    def params(self) -> np.ndarray:
        """The live flat parameter array; every layer's weight and bias are views of it."""
        return self._params

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
        state = as_float64(state)
        single = state.ndim == 1
        if single:
            state = state[None, :]
        if state.shape[1] != self.state_dim:
            raise ValueError(f"state width {state.shape[1]} != {self.state_dim}")
        if self.action_dim == 0:
            act = None  # an actor's pass never reads the action
        else:
            if action is None:
                raise ValueError("action required")
            act = as_float64(action)
            if act.ndim == 1:
                act = act[None, :]
            if act.shape != (state.shape[0], self.action_dim):
                raise ValueError(
                    f"action shape {act.shape} incompatible with ({state.shape[0]}, {self.action_dim})"
                )
        return state, act, single

    def _forward_core(self, x, act, want_derivs: bool, want_cache: bool, hessian: bool = True):
        cache = [] if want_cache else None
        h = x
        for _, WT, b, activation, _, injected, _ in self._plan:
            if injected:
                h = np.concatenate([h, act], axis=1)
            z = h.dot(WT)
            z += b
            fp = None  # f'(z), where read; None for identity
            if activation == "tanh":
                np.tanh(z, out=z)
                at_action = want_derivs and injected
                if at_action or want_cache:
                    fp = z * z
                    np.subtract(1.0, fp, out=fp)
                if at_action:
                    fpp = None
                    if hessian:
                        fpp = z * -2.0
                        fpp *= fp
                    action_fp = fp, fpp
            elif activation == "relu":  # never where the action enters
                if want_cache:
                    fp = (z > 0.0).astype(float)
                np.maximum(z, 0.0, out=z)
            if want_cache:
                cache.append((h, fp))
            h = z
        if not want_derivs:
            return h, None, None, cache
        return (h, *self._output_derivs(*action_fp), cache)

    def _output_derivs(self, fp, fpp):
        """(batch, out, d_a) Jacobian and (batch, out, d_a, d_a) Hessian of the
        output, from f' and f'' of the tanh layer where the action enters.

        G_oi = sum_k f'_k Wo_ok Wa_ki and H_oij = sum_k f''_k Wo_ok Wa_ki Wa_kj,
        each one (batch, width) matrix product.  The Hessian is None when
        ``fpp`` is.
        """
        (_, WT, _, _, w, _, _), (Wo, _, _, _, o, _, _) = self._plan[-2:]
        da = self.action_dim
        Wa = WT[WT.shape[0] - da :].T  # (width, d_a)
        WoT = Wo.T[:, :, None]  # (width, out, 1)
        B = fp.shape[0]
        G = fp.dot((WoT * Wa[:, None, :]).reshape(w, o * da)).reshape(B, o, da)
        if fpp is None:
            return G, None
        # Wa_i Wa_j is formed before the product with Wo, so H is exactly symmetric.
        mh = WoT[..., None] * (Wa[:, :, None] * Wa[:, None, :])[:, None]
        H = fpp.dot(mh.reshape(w, o * da * da)).reshape(B, o, da, da)
        return G, H

    def forward(self, state, action=None) -> np.ndarray:
        state, act, single = self._promote(state, action)
        h, _, _, _ = self._forward_core(state, act, want_derivs=False, want_cache=False)
        return h[0] if single else h

    def forward_with_action_derivs(self, state, action, hessian: bool = True) -> ForwardTriple:
        """Output with its action Jacobian and, unless ``hessian`` is False, its
        action Hessian; a Jacobian-only pass returns ``hessian=None``.  A net
        without an action input has no action derivatives and raises."""
        if self.action_dim == 0:
            raise ValueError("a net without an action input has no action derivatives")
        state, act, single = self._promote(state, action)
        h, G, H, _ = self._forward_core(state, act, want_derivs=True, want_cache=False,
                                        hessian=hessian)
        if single:
            return ForwardTriple(value=h[0], jacobian=G[0], hessian=None if H is None else H[0])
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
        plan = self._plan

        def vjp(cotangent) -> np.ndarray:
            cot = as_float64(cotangent)
            if cot.shape != out.shape:
                raise ValueError(f"cotangent shape {cot.shape} != {out.shape}")
            grad = np.empty(self.n_params)
            delta = cot
            for k in range(len(plan) - 1, -1, -1):
                W, _, _, _, _, injected, (i, j, end) = plan[k]
                h_in, fp = cache[k]
                dz = delta
                if fp is not None:  # every delta but the caller's cotangent is this pass's own
                    dz = delta * fp if delta is cot else np.multiply(delta, fp, out=delta)
                # np.dot would round this product differently when dz is the
                # caller's broadcast cotangent column; see the module docstring.
                np.matmul(dz.T, h_in, out=grad[i:j].reshape(W.shape))
                np.add.reduce(dz, axis=0, out=grad[j:end])
                if k > 0:
                    delta = dz.dot(W)
                    if injected:
                        delta = delta[:, : delta.shape[1] - self.action_dim]
            return grad

        return out, vjp


# ------------------------------------------------------------------ builders


def critic_net(
    state_dim: int,
    action_dim: int,
    hidden: tuple[int, ...] = (64, 64),
    rng: np.random.Generator | None = None,
) -> DerivNet:
    """State layers, then the action joins the last hidden layer; tanh throughout,
    scalar linear output."""
    if len(hidden) < 2:
        raise ValueError("critic needs at least two hidden layers")
    rng = rng or np.random.default_rng(0)
    widths = (state_dim, *hidden)
    layers = [_init_layer(n_in, n_out, "tanh", rng) for n_in, n_out in zip(widths[:-2], widths[1:-1])]
    layers.append(_init_layer(hidden[-2] + action_dim, hidden[-1], "tanh", rng))
    layers.append(_init_layer(hidden[-1], 1, "identity", rng))
    return DerivNet(state_dim, action_dim, layers)


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
    return DerivNet(state_dim, 0, layers)


# ----------------------------------------------------------------- optimizer


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    # Two parameter-sized scratch arrays, allocated by the first step.
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    @classmethod
    def for_params(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(params: np.ndarray, grads: np.ndarray, lr: float, state: AdamState) -> np.ndarray:
    """One Adam descent step, in place: subtracts the step from ``params``,
    updates ``state.m`` and ``state.v``, and returns ``params``.

    Pass ``net.params`` to step a net; nothing is written when the gradient
    is rejected.

    The arithmetic is that of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``params - lr*mhat / (sqrt(vhat) + eps)``, operation for operation, with
    b1, b2 and eps the module's ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.
    """
    grads = as_float64(grads)
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} != params shape {params.shape}")
    if not np.isfinite(grads).all():
        raise DivergenceError("non-finite gradient in adam_step")
    if state.scratch is None or state.scratch[0].shape != grads.shape:
        state.scratch = (np.empty_like(grads), np.empty_like(grads))
    a, b = state.scratch
    m, v = state.m, state.v
    state.t += 1
    m *= ADAM_BETA1
    m += np.multiply(grads, 1.0 - ADAM_BETA1, out=a)
    np.multiply(grads, 1.0 - ADAM_BETA2, out=a)
    v *= ADAM_BETA2
    v += np.multiply(a, grads, out=a)
    np.divide(m, 1.0 - ADAM_BETA1**state.t, out=a)  # mhat
    a *= lr
    np.divide(v, 1.0 - ADAM_BETA2**state.t, out=b)  # vhat
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    params -= a
    return params


def polyak_update(target: np.ndarray, online: np.ndarray, tau: float) -> np.ndarray:
    """Write (1 - tau) * target + tau * online into ``target`` and return it.

    Pass a target net's ``params`` to average it toward the online net's.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    target *= 1.0 - tau
    target += tau * online
    return target


def huber(residual, clip: float):
    """Value and derivative of the Huber loss, quadratic inside +-clip, linear outside."""
    if clip <= 0.0:
        raise ValueError(f"huber clip must be positive, got {clip}")
    r = as_float64(residual)
    mag = np.abs(r)
    inside = mag <= clip
    value = np.where(inside, 0.5 * r * r, clip * (mag - 0.5 * clip))
    deriv = np.where(inside, r, clip * np.sign(r))
    return value, deriv


def clip_global_norm(g: np.ndarray, max_norm: float) -> np.ndarray:
    # np.linalg.norm of a vector is this same sqrt(g . g), behind more dispatch.
    norm = math.sqrt(g.dot(g))
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
        line = fh.readline()
        blob = fh.read()
    try:
        header = line.decode("ascii").strip()
    except UnicodeDecodeError:
        raise ValueError(f"bad checkpoint header {line[:40]!r}: not ASCII") from None
    prefix = "dims="
    if not header.startswith(prefix):
        raise ValueError(f"bad checkpoint header {header!r}")
    if header[len(prefix) :] != net.dims_header():
        raise ValueError(
            f"checkpoint dims {header[len(prefix):]} do not match net dims {net.dims_header()}"
        )
    if len(blob) % 8:
        raise ValueError(f"bad checkpoint: {len(blob)} bytes of parameters is not a whole "
                         "number of float64 values")
    flat = np.frombuffer(blob, dtype="<f8")
    if flat.shape[0] != net.n_params:
        raise ValueError(f"checkpoint holds {flat.shape[0]} values, net has {net.n_params}")
    net.set_params(flat.astype(float))
