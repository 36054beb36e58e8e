"""Analytic synthetic denoisers, the ground truth that sampler runs are compared against.

Three denoiser families act as ground-truth oracles at desk scale:

* gaussian_mixture_flow -- the exact velocity field of a rectified-flow path
  x_t = (1-t)*noise + t*data with data drawn from a Gaussian mixture.  The
  drift has a closed form (posterior-weighted affine per-component fields),
  so a full-pass run is an exact reference up to solver discretization.
* function_family -- feature channels are named analytic functions of t,
  independent of the state; useful for exactness and bound checks.
* block_stack -- a stack of smooth residual blocks (fixed random rotation
  plus a tanh nonlinearity) over a polynomial base feature, for comparing
  last-block against per-block caching.  Per-block caching, with any
  forecaster kind, forecasts every block's residual y_b - y_(b-1) through
  one shared plan and adds back the base, which needs no network pass.

In every family the score fed to the solver is the last-block feature
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .basis import _count, _finite, _real


@dataclass(frozen=True, eq=False)
class GaussianMixtureFlow:
    """Rectified-flow velocity oracle for a diagonal Gaussian mixture target, of its declared shapes only."""

    weights: tuple[float, ...]
    means: np.ndarray      # (n_components, dim)
    variances: np.ndarray  # (n_components, dim), strictly positive
    seed: int = 0
    _log_weights: np.ndarray = field(init=False, repr=False, compare=False)

    kind = "gaussian_mixture_flow"

    def __post_init__(self):
        for values, what in ((self.weights, "mixture weights"), (self.means, "mixture means"),
                             (self.variances, "mixture variances")):
            _finite(values, what)  # before the conversions to float, which would take a string for a number
        w, means, variances = (np.asarray(v, dtype=float) for v in (self.weights, self.means, self.variances))
        if means.ndim != 2 or variances.shape != means.shape or w.shape != means.shape[:1]:
            raise ValueError("mixture weights, means and variances must have shapes (n_components,), (n_components, "
                             f"dim) and (n_components, dim), got {w.shape}, {means.shape} and {variances.shape}")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "weights", tuple(w.tolist()))
        object.__setattr__(self, "seed", _count(self.seed, "seed"))
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be non-negative and sum to 1")
        if np.any(variances <= 0.0):
            raise ValueError("mixture variances must be strictly positive")
        # A zero weight becomes -inf, so its component gets zero responsibility.
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_log_weights", np.log(w))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def velocity(self, x: np.ndarray, t: float) -> np.ndarray:
        """Marginal flow velocity E[data - noise | x_t = x], in closed form.

        Per component the interpolant marginal is N(t*mu, ((1-t)^2 + t^2 s^2) I)
        diagonally, the conditional velocity is affine in x, and components are
        combined by their posterior responsibilities at (x, t).
        """
        x = np.asarray(x, dtype=float)
        s2 = (1.0 - t) ** 2 + t * t * self.variances          # (C, D)
        centered = x[None, :] - t * self.means                # (C, D)
        log_resp = self._log_weights - 0.5 * np.sum(
            centered * centered / s2 + np.log(2.0 * np.pi * s2), axis=1
        )
        log_resp -= log_resp.max()
        resp = np.exp(log_resp)
        resp /= resp.sum()
        v_comp = self.means + (t * self.variances - (1.0 - t)) * centered / s2
        return resp @ v_comp


class _FiniteParams:
    """A channel: a float field takes one finite number, a tuple[float, ...] field a sequence of them, each by _real."""

    def __post_init__(self):
        for f in fields(self):
            value, what = getattr(self, f.name), f"channel {f.name}"
            _finite(value, what)
            if f.type != "tuple[float, ...]":
                value = _real(value, what)
            elif np.ndim(value) == 1:
                value = tuple(_real(x, what) for x in value)
            else:
                raise ValueError(f"{what} must be a sequence of numbers, got {value!r}")
            object.__setattr__(self, f.name, value)  # floats, as a config reloads them: both dump the same text


@dataclass(frozen=True)
class PolynomialChannel(_FiniteParams):
    coefficients: tuple[float, ...]  # ascending powers of t

    def __call__(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc


@dataclass(frozen=True)
class SineChannel(_FiniteParams):
    amplitude: float = 1.0
    frequency: float = 1.0  # cycles over t in [0, 1]
    phase: float = 0.0

    def __call__(self, t: float) -> float:
        return self.amplitude * np.sin(2.0 * np.pi * self.frequency * t + self.phase)


@dataclass(frozen=True)
class ExponentialChannel(_FiniteParams):
    scale: float = 1.0
    rate: float = 1.0

    def __call__(self, t: float) -> float:
        return self.scale * np.exp(self.rate * t)


Channel = PolynomialChannel | SineChannel | ExponentialChannel


@dataclass(frozen=True)
class FunctionFamily:
    """Feature channels are analytic functions of t; the state is ignored."""

    channels: tuple[Channel, ...]
    seed: int = 0

    kind = "function_family"

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "seed", _count(self.seed, "seed"))
        if not self.channels:
            raise ValueError("function family needs at least one channel")

    @property
    def dim(self) -> int:
        return len(self.channels)

    def features(self, t: float) -> np.ndarray:
        return np.asarray([ch(t) for ch in self.channels], dtype=float)


@dataclass(frozen=True, eq=False)
class BlockStack:
    """Smooth residual blocks over a cubic-polynomial base feature.

    Block b maps y -> y + gain * tanh(R_b @ y) with a rotation R_b fixed at
    construction from the seed, so the stack output is a deterministic smooth
    function of t.  mixing="identity" replaces every R_b with the identity.
    """

    n_blocks: int = 4
    width: int = 32
    gain: float = 0.5
    mixing: str = "rotation"
    seed: int = 0
    _rotations: tuple = field(init=False, repr=False, compare=False)
    _base_coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    kind = "block_stack"

    def __post_init__(self):
        object.__setattr__(self, "n_blocks", _count(self.n_blocks, "block count", least=1))
        object.__setattr__(self, "width", _count(self.width, "feature width", least=1))
        object.__setattr__(self, "gain", _real(self.gain, "nonlinearity gain", least=0.0))
        object.__setattr__(self, "seed", _count(self.seed, "seed"))
        if self.mixing not in ("rotation", "identity"):
            raise ValueError(f"mixing must be 'rotation' or 'identity', got {self.mixing!r}")
        rng = np.random.default_rng(self.seed)
        # Cubic base per channel, mildly damped high coefficients.
        coeffs = rng.normal(size=(self.width, 4)) * np.array([0.8, 0.8, 0.4, 0.2])
        rotations = []
        for _ in range(self.n_blocks):
            if self.mixing == "identity":
                rotations.append(np.eye(self.width))
            else:
                q, r = np.linalg.qr(rng.normal(size=(self.width, self.width)))
                rotations.append(q * np.sign(np.diag(r)))
        object.__setattr__(self, "_rotations", tuple(rotations))
        object.__setattr__(self, "_base_coeffs", coeffs)

    @property
    def dim(self) -> int:
        return self.width

    def base_feature(self, t: float) -> np.ndarray:
        powers = np.array([1.0, t, t * t, t * t * t])
        return self._base_coeffs @ powers

    def base_features(self, ts: np.ndarray, out: np.ndarray) -> np.ndarray:
        """base_feature(t) for every t of ts, written into the rows of out, a (len(ts), width) array.

        One stacked product makes them all: numpy hands each (width, 4) @
        (4, 1) slice to the same matrix-vector product as base_feature, so
        each row is bitwise its base_feature.  The powers are rows of one
        C-contiguous array for that; over a transposed one it is not.
        """
        powers = np.empty((len(ts), 4))
        powers[:, 0] = 1.0
        powers[:, 1] = ts
        np.multiply(ts, ts, out=powers[:, 2])
        np.multiply(powers[:, 2], ts, out=powers[:, 3])
        np.matmul(self._base_coeffs, powers[:, :, None], out=out[:, :, None])
        return out

    def stage_outputs(self, t: float, base: np.ndarray | None = None) -> np.ndarray:
        """The (n_blocks + 1, width) array of rows y_0, y_1, ..., y_B: y_0 the base feature, y_B the output.

        base, when given, is y_0 made already: bitwise base_feature(t), as
        each row of base_features is.
        """
        stages = np.empty((self.n_blocks + 1, self.width))
        y = stages[0] = self.base_feature(t) if base is None else base
        for b, rot in enumerate(self._rotations, start=1):
            y = stages[b] = y + self.gain * np.tanh(rot @ y)
        return stages

    def features(self, t: float) -> np.ndarray:
        return self.stage_outputs(t)[-1]


DenoiserSpec = GaussianMixtureFlow | FunctionFamily | BlockStack


def evaluate_denoiser(spec: DenoiserSpec, x: np.ndarray, t: float) -> np.ndarray:
    """One actual pass: the feature vector h.

    The score map on the last-block feature is the identity in every family,
    so h is also the score fed to the solver; for the mixture flow h is the
    closed-form velocity.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"timestep must lie in [0, 1], got {t}")
    if isinstance(spec, GaussianMixtureFlow):
        x = np.asarray(x, dtype=float)
        if x.shape != (spec.dim,):
            raise ValueError(f"state must have shape ({spec.dim},), got {x.shape}")
        h = spec.velocity(x, t)
    else:
        h = spec.features(t)
    return h
