"""Markovian noise channels: catalog, generators and propagation.

Each channel is a Lindblad generator with no Hamiltonian part,

    d rho / dt = sum_k gamma_k ( L_k rho L_k^dag
                                 - (L_k^dag L_k rho + rho L_k^dag L_k) / 2 ).

The catalog is :class:`IndependentDecay`, :class:`IndependentDephasing`
and :class:`CollectiveDephasing`.  Each class carries all that differs
between them: its flow (class docstring), ``(L, D(L), rate)`` terms
(``_terms``), closed-form X curves (``_curves``), late-time PT-block
margins (``_limit_margins``), whether its outer block is undamped
(``_outer_undamped``), asymptotic set (``_asymptotic_set``) and literal
prefix (``_prefix``, then its fields).  The public functions read these
and refuse other channels, such as a :class:`CustomChannel`, which is
propagated numerically only; :func:`is_catalog` is the one type test.
The closed forms are exact because each catalog generator maps the X
family to itself with decoupled population and coherence flows.

A block's margin, ``|w(t)|^2 - b(t)c(t)`` for the inner PT block (outer:
``|z(t)|^2 - a(t)d(t)``), is positive exactly while the block is entangled.  It
underflows at late times, but factors into a decaying envelope times a bracket
with a finite limit, which ``_limit_margins`` gives: O(1) arithmetic on the
initial data, whose sign outlives the pointwise margin and decides the death
verdicts of :mod:`esdkit.dynamics`.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Union

import numpy as np

from .errors import (
    OutOfRangeError,
    ParseError,
    StepTooLargeError,
    UnsupportedChannelError,
    ValidationError,
)
from .states import (
    DEFAULT_TOL,
    DensityMatrix,
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    ToleranceConfig,
    XState,
    _checked_stack,
    _frozen,
    _literal_numbers,
    _unchecked_density,
    make_x,
    parse_dense_entries,
)

__all__ = [
    "IndependentDecay",
    "IndependentDephasing",
    "CollectiveDephasing",
    "CustomChannel",
    "ChannelSpec",
    "is_catalog",
    "max_rate",
    "jump_operators",
    "generator",
    "liouvillian",
    "propagate_numeric",
    "propagate_x_closed",
    "x_closed_curves",
    "SinglePoint",
    "XFamily",
    "ExplicitSamples",
    "AsymptoticSet",
    "asymptotic_set",
    "set_contains",
    "thermal_product",
    "parse_channel_literal",
    "format_channel_literal",
]


def _float_fields(channel) -> None:
    """Store each field of a catalog channel as a Python float; a bool, a
    non-real or a number past float range raises :class:`OutOfRangeError`."""
    for f in fields(channel):
        value = getattr(channel, f.name)
        if type(value) is float:  # as a literal parses; the checks cost twice the rest of __init__
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise OutOfRangeError(f"{f.name} must be a real number, got {type(value).__name__}")
        try:
            object.__setattr__(channel, f.name, float(value))
        except OverflowError:
            raise OutOfRangeError(f"{f.name} is too large for a float") from None


def _require_rates(pairs: dict[str, float], derived: dict[str, float]) -> None:
    for name, value in pairs.items():
        if not (value >= 0.0 and math.isfinite(value)):
            raise OutOfRangeError(f"rate {name}={value!r} must be nonnegative and finite")
    if max(pairs.values()) <= 0.0:
        raise OutOfRangeError("at least one rate must be positive")
    for name, value in derived.items():
        if not math.isfinite(value):
            raise OutOfRangeError(f"derived rate {name}={value!r} overflows")


def _thermal_scale(nbar: float) -> float:
    """``2 nbar + 1``, the factor of the decay rates, refusing an ``nbar`` it overflows."""
    if not (nbar >= 0.0 and math.isfinite(2.0 * nbar + 1.0)):
        raise OutOfRangeError(f"nbar={nbar!r} must be nonnegative and finite, as must 2*nbar+1")
    return 2.0 * nbar + 1.0


_EYE_4, _EYE_16, _TWO_EYE_16 = _frozen(np.eye(4)), _frozen(np.eye(16)), _frozen(2.0 * np.eye(16))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 4x4 matrices, as one broadcast product."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(16, 16)


def _paired(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(L, D(L))``, both read-only, with the dissipator ``D(L) = L kron conj(L) -
    (L^dag L kron I + I kron (L^dag L)^T) / 2``, non-finite if L is too large for it."""
    op = _frozen(op)
    # a block: np.errstate as a decorator costs several times more per call
    with np.errstate(over="ignore", invalid="ignore"):
        anti = op.conj().T @ op
        d = _kron(op, op.conj()) - 0.5 * (_kron(anti, _EYE_4) + _kron(_EYE_4, anti.T))
    return op, _frozen(d)


# the catalog's jump operators as (on qubit A, on qubit B), each an (L, D(L)) pair
_LOWER, _RAISE, _PHASE = (
    (_paired(np.kron(op, IDENTITY_2)), _paired(np.kron(IDENTITY_2, op)))
    for op in (SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z)
)
_INVERSION = _paired(0.5 * (_PHASE[0][0] + _PHASE[1][0]))


def _dephased(x: XState, tau: np.ndarray, rate: float, z_kept: bool) -> tuple[np.ndarray, ...]:
    """X curves with frozen populations and ``w`` decaying at ``rate``, ``z`` too unless kept."""
    ones = np.ones_like(tau)
    shrink = np.exp(-rate * tau)
    return (x.a * ones, x.b * ones, x.c * ones, x.d * ones,
            x.w * shrink, x.z * (ones + 0.0j if z_kept else shrink))


@dataclass(frozen=True)
class IndependentDecay:
    """Local amplitude damping into thermal reservoirs of occupation ``nbar``.

    Lowering jumps at ``gamma_i (nbar + 1)``, raising ones at ``gamma_i nbar``.
    With ``E_i = exp(-Gamma_i t)``, ``Gamma_i = gamma_i (2 nbar + 1)`` and
    ``q = nbar / (2 nbar + 1)``, each qubit's excited weight relaxes as
    ``p -> E p + q (1 - E)``; the joint populations factor through the two
    single-qubit transfer matrices, and both coherences shrink by ``sqrt(E_A E_B)``.
    """

    gamma_a: float
    gamma_b: float
    nbar: float = 0.0
    _prefix = "decay:"
    _outer_undamped = False

    def __post_init__(self) -> None:
        _float_fields(self)
        scale = _thermal_scale(self.nbar)
        _require_rates({"gamma_a": self.gamma_a, "gamma_b": self.gamma_b},
                       {"gamma_a*(2*nbar+1)": self.gamma_a * scale,
                        "gamma_b*(2*nbar+1)": self.gamma_b * scale})

    @property
    def _terms(self) -> tuple:
        down, up = self.nbar + 1.0, self.nbar
        return ((*_LOWER[0], self.gamma_a * down), (*_LOWER[1], self.gamma_b * down),
                (*_RAISE[0], self.gamma_a * up), (*_RAISE[1], self.gamma_b * up))

    def _curves(self, x: XState, tau: np.ndarray) -> tuple[np.ndarray, ...]:
        scale = 2.0 * self.nbar + 1.0
        q = self.nbar / scale
        e_a = np.exp(-self.gamma_a * scale * tau)
        e_b = np.exp(-self.gamma_b * scale * tau)
        # single-qubit transfer matrices [[stay, gain], [1-stay, 1-gain]]
        stay_a, gain_a = e_a + q * (1.0 - e_a), q * (1.0 - e_a)
        stay_b, gain_b = e_b + q * (1.0 - e_b), q * (1.0 - e_b)
        # mix A first (rows of [[a, b], [c, d]]), then B (columns)
        m00 = stay_a * x.a + gain_a * x.c
        m01 = stay_a * x.b + gain_a * x.d
        m10 = (1.0 - stay_a) * x.a + (1.0 - gain_a) * x.c
        m11 = (1.0 - stay_a) * x.b + (1.0 - gain_a) * x.d
        a = stay_b * m00 + gain_b * m01
        b = (1.0 - stay_b) * m00 + (1.0 - gain_b) * m01
        c = stay_b * m10 + gain_b * m11
        d = (1.0 - stay_b) * m10 + (1.0 - gain_b) * m11
        shrink = np.sqrt(e_a * e_b)
        return a, b, c, d, x.w * shrink, x.z * shrink

    def _limit_margins(self, x0: XState) -> tuple:
        a, b, c, d = x0.a, x0.b, x0.c, x0.d
        # hypot and square give a scalar's bits on an array too; abs(w) ** 2 does not
        w2, z2 = (np.square(np.hypot(v.real, v.imag)) for v in (x0.w, x0.z))
        if self.nbar == 0.0:
            # e_i(t) -> 0 for gamma_i > 0 and stays 1 for a frozen qubit;
            # both coherence and population products carry the same
            # e_a*e_b envelope, leaving these brackets.
            sa = 1.0 if self.gamma_a == 0.0 else 0.0
            sb = 1.0 if self.gamma_b == 0.0 else 0.0
            d_inf = (1.0 - sa) * (1.0 - sb) * a + (1.0 - sb) * c + (1.0 - sa) * b + d
            return z2 - a * d_inf, w2 - ((1.0 - sb) * a + b) * ((1.0 - sa) * a + c)
        # finite temperature: coherences vanish while the populations
        # settle on a product state, generically strictly interior, so
        # the raw limit margin is already well scaled
        q = self.nbar / (2.0 * self.nbar + 1.0)
        pa = a + b if self.gamma_a == 0.0 else q
        pb = a + c if self.gamma_b == 0.0 else q
        return -(pa * pb) * ((1.0 - pa) * (1.0 - pb)), -(pa * (1.0 - pb)) * ((1.0 - pa) * pb)

    def _asymptotic_set(self) -> AsymptoticSet:
        if self.gamma_a <= 0.0 or self.gamma_b <= 0.0:
            raise UnsupportedChannelError("asymptotic set requires both decay rates positive")
        return SinglePoint(thermal_product(self.nbar))


@dataclass(frozen=True)
class IndependentDephasing:
    """Local phase damping at rates ``kappa_a``, ``kappa_b``.

    Jump ``sigma_z`` on each qubit at rate ``kappa_i / 2``.  Populations are
    frozen; a single-qubit coherence decays as ``exp(-kappa_i t)``, so ``w``
    and ``z`` both decay as ``exp(-(kappa_a + kappa_b) t)``.
    """

    kappa_a: float
    kappa_b: float
    _prefix = "dephase:"
    _outer_undamped = False

    def __post_init__(self) -> None:
        _float_fields(self)
        _require_rates({"kappa_a": self.kappa_a, "kappa_b": self.kappa_b},
                       {"kappa_a+kappa_b": self.kappa_a + self.kappa_b})
        if max(self.kappa_a, self.kappa_b) / 2.0 == 0.0:  # the jump rates, 5e-324 / 2 = 0
            raise OutOfRangeError("at least one jump rate kappa/2 must be positive")

    @property
    def _terms(self) -> tuple:
        return (*_PHASE[0], self.kappa_a / 2.0), (*_PHASE[1], self.kappa_b / 2.0)

    def _curves(self, x: XState, tau: np.ndarray) -> tuple[np.ndarray, ...]:
        return _dephased(x, tau, self.kappa_a + self.kappa_b, z_kept=False)

    def _limit_margins(self, x0: XState) -> tuple:
        # frozen populations, both coherences damped
        return -(x0.a * x0.d), -(x0.b * x0.c)

    def _asymptotic_set(self) -> AsymptoticSet:
        if self.kappa_a <= 0.0 or self.kappa_b <= 0.0:
            raise UnsupportedChannelError("asymptotic set requires both dephasing rates positive")
        return XFamily(w_zero=True, z_zero=True)


@dataclass(frozen=True)
class CollectiveDephasing:
    """Shared phase damping of the total inversion at rate ``kappa_c``.

    Jump ``(sigma_z (x) I + I (x) sigma_z) / 2 = diag(1, 0, 0, -1)``.  An entry
    ``rho_jk`` decays as ``exp(-kappa_c (lam_j - lam_k)^2 t / 2)`` with
    ``lam = (1, 0, 0, -1)``, so ``w`` decays at rate ``2 kappa_c`` while ``z``
    and all populations are invariant (the inner levels are decoherence-free).
    """

    kappa_c: float
    _prefix = "collective:"
    _outer_undamped = True  # z spans the decoherence-free subspace

    def __post_init__(self) -> None:
        _float_fields(self)
        _require_rates({"kappa_c": self.kappa_c}, {"2*kappa_c": 2.0 * self.kappa_c})

    @property
    def _terms(self) -> tuple:
        return ((*_INVERSION, self.kappa_c),)

    def _curves(self, x: XState, tau: np.ndarray) -> tuple[np.ndarray, ...]:
        return _dephased(x, tau, 2.0 * self.kappa_c, z_kept=True)

    def _limit_margins(self, x0: XState) -> tuple:
        # frozen populations, w damped, z kept: the outer margin is constant
        return np.square(np.hypot(x0.z.real, x0.z.imag)) - x0.a * x0.d, -(x0.b * x0.c)

    def _asymptotic_set(self) -> AsymptoticSet:
        return XFamily(w_zero=True, z_zero=False)


@dataclass(frozen=True, eq=False)
class CustomChannel:
    """Explicit jump list ``((L_1, rate_1), ...)`` with 4x4 operators."""

    jumps: tuple = field(repr=False)
    _terms: tuple = field(init=False, repr=False)  # (L, D(L), rate), as _jump_terms

    def __post_init__(self) -> None:
        if len(self.jumps) == 0:
            raise ValidationError("custom channel needs at least one jump operator")
        normalized = []
        top = 0.0
        total = np.zeros((16, 16), dtype=complex)  # the generator, summed as liouvillian does
        for idx, (op, rate) in enumerate(self.jumps):
            m = np.asarray(op, dtype=complex)
            if m.shape != (4, 4):
                raise ValidationError(
                    f"jump operator {idx + 1} has shape {m.shape}, expected (4, 4)"
                )
            if not np.isfinite(m).all():
                raise OutOfRangeError(f"jump operator {idx + 1} has non-finite entries")
            rate = float(rate)
            if not (rate >= 0.0 and math.isfinite(rate)):
                raise OutOfRangeError(
                    f"jump rate {idx + 1} must be nonnegative and finite: {rate!r}"
                )
            top = max(top, rate)
            normalized.append((*_paired(m), rate))
            with np.errstate(over="ignore", invalid="ignore"):  # a zero rate drops its jump
                total += rate * normalized[-1][1] if rate > 0.0 else 0.0
            if not np.isfinite(total).all():
                raise OutOfRangeError(f"jump operator {idx + 1} makes the generator overflow")
        if top <= 0.0:
            raise OutOfRangeError("at least one jump rate must be positive")
        object.__setattr__(self, "jumps", tuple((op, rate) for op, _, rate in normalized))
        object.__setattr__(self, "_terms", tuple(normalized))


ChannelSpec = Union[
    IndependentDecay, IndependentDephasing, CollectiveDephasing, CustomChannel
]

_CATALOG = (IndependentDecay, IndependentDephasing, CollectiveDephasing)
# each catalog literal's prefix -> its class and the commas between its fields
_LITERALS = {kind._prefix: (kind, "," * (len(fields(kind)) - 1)) for kind in _CATALOG}


def is_catalog(channel: ChannelSpec) -> bool:
    """True for channels with closed-form X dynamics and known asymptotics."""
    return isinstance(channel, _CATALOG)


def _jump_terms(channel: ChannelSpec) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """The ``(L, D(L), rate)`` triples of the generator, zero rates dropped."""
    if not (is_catalog(channel) or isinstance(channel, CustomChannel)):
        raise UnsupportedChannelError(f"unknown channel type {type(channel).__name__}")
    return [term for term in channel._terms if term[2] > 0.0]


def jump_operators(channel: ChannelSpec) -> list[tuple[np.ndarray, float]]:
    """The ``(L, rate)`` pairs defining the generator (zero rates dropped).
    Each ``L`` is read-only; catalog channels share module constants."""
    return [(op, rate) for op, _, rate in _jump_terms(channel)]


def max_rate(channel: ChannelSpec) -> float:
    """Largest jump rate; the natural inverse-time scale of the channel."""
    return max(rate for *_, rate in _jump_terms(channel))


def _time_scale(channel: ChannelSpec, units: float, name: str) -> float:
    """``units / max_rate(channel)``, the default of ``name``, or OutOfRangeError on overflow."""
    rate = float(max_rate(channel))
    scale = units / rate
    if math.isinf(scale):
        raise OutOfRangeError(f"the default {name} = {units!r} / {rate!r} (the largest jump rate) "
                              f"overflows; pass {name}")
    return scale


def generator(channel: ChannelSpec, rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """d rho / dt under the Lindblad generator: :func:`liouvillian` applied to ``vec(rho)``."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return (liouvillian(channel) @ m.reshape(16)).reshape(4, 4)


def liouvillian(channel: ChannelSpec) -> np.ndarray:
    """16x16 matrix acting on row-major vectorized states.

    Uses ``vec(A X B) = (A kron B^T) vec(X)``, so each jump contributes
    ``rate D(L)``, with its dissipator ``D(L)`` (see :func:`_paired`) built once
    per operator: the catalog's at import, a custom channel's at construction.
    A catalog channel whose sum overflows raises :class:`UnsupportedChannelError`.
    """
    out = np.zeros((16, 16), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for _, d, rate in _jump_terms(channel):
            out += rate * d
    if not np.isfinite(out).all():
        raise UnsupportedChannelError(f"the generator of {format_channel_literal(channel)} "
                                      "overflows; only its closed forms apply")
    return out


def _step_plan(t: float, dt: float) -> tuple[int, float]:
    """Steps from 0 to ``t``: ``n`` steps, the last of length
    ``min(dt, t - (n - 1) dt)`` or ``dt`` where that is not positive, so in
    (0, dt], with ``n = ceil(t / dt)`` robust to roundoff in ``t / dt``,
    which must be finite."""
    steps = t / dt
    if not math.isfinite(steps):
        raise OutOfRangeError(f"step dt={dt!r} is too small for t={t!r}: t / dt overflows")
    n_steps = max(1, int(np.ceil(steps * (1.0 - 1e-12))))
    # the fudge drops floor(1e-12 t / dt) whole steps once t / dt >= 1e12
    n_steps += max(0, round((t - n_steps * dt) / dt))
    last = t - (n_steps - 1) * dt
    # past 2**53 steps this difference is coarser than dt and can round to 0 or below
    return n_steps, last if 0.0 < last < dt else dt


# (lv.tobytes(), h) -> the deltas P(h)^(2^k) - I for k = 0, 1, ..., least recently used first
_POWERS: dict[tuple[bytes, float], tuple[np.ndarray, ...]] = {}
_POWERS_LOCK = threading.Lock()
_POWERS_HELD = 256  # matrices, each key's generator bits counted as one: 1 MB of 16x16 complex


def _step_powers(lv: np.ndarray, lv_bits: bytes, h: float, count: int) -> tuple[np.ndarray, ...]:
    """The read-only deltas ``P(h)^(2^k) - I``, ``k < count``, of the generator
    ``lv`` (``lv_bits`` its ``tobytes()``), memoized per ``(lv_bits, h)``: a call
    extends the cached prefix, the least recently used go past ``_POWERS_HELD``,
    and a run past it alone is not kept.  Each is its uncached product, bit for bit."""
    key = (lv_bits, h)
    with _POWERS_LOCK:
        _POWERS[key] = powers = _POWERS.pop(key, ())  # now the most recently used
    if len(powers) < count:
        a = h * lv
        grown = list(powers) or [
            _frozen(a @ (_EYE_16 + a @ (_EYE_16 + a @ (_EYE_16 + a / 4.0) / 3.0) / 2.0))]
        while len(grown) < count:
            grown.append(_frozen(grown[-1] @ (grown[-1] + _TWO_EYE_16)))
        with _POWERS_LOCK:
            _POWERS[key] = powers = tuple(grown)
            if len(powers) >= _POWERS_HELD:  # alone past the bound it would evict all, itself too
                del _POWERS[key]
            while sum(map(len, _POWERS.values())) + len(_POWERS) > _POWERS_HELD:
                del _POWERS[next(iter(_POWERS))]
    return powers


def _rk4_samples(
    lv: np.ndarray, v0: np.ndarray, dt: float, h_last: float, ks: list[int]
) -> np.ndarray:
    """RK4 for ``dv/dt = lv v`` from ``v0``: one row per step count in
    ``ks``, which starts at 0 and rises by one hop up to its last entry
    ``n``, at most one hop past the one before; step ``n`` has length
    ``h_last``, the others ``dt``.

    Steps are powers of ``P(h) = I + hL + ... + (hL)^4/24``, each kept as
    its delta from ``I`` (a matrix ``math.expm1``), so a step far below
    the generator's scale is not rounded away: ``D = P(h) - I`` is the
    Horner form without its leading ``I``, squaring is ``D(D + 2I) = 2D +
    D^2``, combining ``R + B + RB``, and a state advances as ``v + Dv``.
    The squares ``P(h)^(2^k) - I`` are memoized across calls (thread-safe,
    about 1 MB; see :func:`_step_powers`) with the bits they have uncached.
    The hop powers' deltas ``G_1..G_B``, ``B`` about the root of the
    sample count, advance ``B`` samples per batched product.  A step too
    large for RK4 can overflow; :func:`_revalidate` reports it.
    """
    def combine(r: np.ndarray, b: np.ndarray) -> np.ndarray:
        return r + b + r @ b

    def bits(n: int) -> list[np.ndarray]:  # the squares that combine to P(dt)^n - I
        return [sq for k, sq in enumerate(squares) if n >> k & 1]

    hops = len(ks) - 2  # samples reached by whole hops
    vs = np.empty((len(ks), 16), dtype=complex)
    vs[0] = v0
    lv_bits = lv.tobytes()  # one object for both keys: its hash is computed once
    with np.errstate(over="ignore", invalid="ignore"):
        squares = _step_powers(lv, lv_bits, dt, ks[1].bit_length())  # up to the longest run ks[1]
        if hops > 0:
            g = [functools.reduce(combine, bits(ks[1]))]
            for _ in range(1, math.isqrt(hops)):
                g.append(combine(g[0], g[-1]))
            g = np.stack(g)
            for i in range(0, hops, len(g)):
                block = g[: hops - i]
                vs[i + 1 : i + 1 + len(block)] = vs[i] + block @ vs[i]
        vs[-1] = vs[-2]
        last = squares[0] if h_last == dt else _step_powers(lv, lv_bits, h_last, 1)[0]
        for d in bits(ks[-1] - ks[-2] - 1) + [last]:
            vs[-1] += d @ vs[-1]
    return vs


def _revalidate(stack: np.ndarray, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Re-check an (n, 4, 4) stack of integrator outputs with
    :func:`~esdkit.states._checked_stack`, each average divided by its trace.
    The first matrix with a non-finite entry, an asymmetry above ``eps_psd``,
    a trace off 1 by more than ``eps_trace`` or an eigenvalue below
    ``-eps_psd`` raises :class:`StepTooLargeError`; otherwise returns the
    normalized stack and the lowest eigenvalue of each of its matrices."""
    m, lowest, _, kind, value = _checked_stack(stack, tol, normalize=True)
    if kind is not None:
        raise StepTooLargeError({
            "finite": "integration overflowed to non-finite entries",
            "asym": "integration left a non-Hermitian matrix (asymmetry {:.3e})",
            "trace": "trace drifted to {!r} during integration",
            "psd": "minimum eigenvalue {:.3e} after integration",
        }[kind].format(value) + "; reduce dt")
    return m, lowest


def propagate_numeric(
    rho0: DensityMatrix,
    channel: ChannelSpec,
    t: float,
    dt: float | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> DensityMatrix:
    """Integrate the master equation to time ``t`` with fixed-step RK4.

    ``dt`` defaults to ``1e-3 / max_rate(channel)``.  This is the last sample
    of :func:`~esdkit.dynamics.simulate`, by the same RK4 primitive and step
    rule: ``ceil(t / dt)`` steps, the last one shortened to end at ``t``.  It
    powers the one-step matrix ``P(dt)`` as deltas from ``I`` in
    O(log(t / dt)) matrix products, so the result matches stepping up to
    roundoff at every ``dt``, even where ``I + dt L`` rounds to ``I``; a
    default ``dt`` or a ``t / dt`` that overflows raises :class:`ValidationError`.
    The squared powers are memoized by generator bits and step (at most about
    1 MB, thread-safe), so calls that repeat both reuse them, bit for bit.
    Output is re-validated: a non-finite result, or one off Hermiticity or
    positivity by more than ``eps_psd`` or off unit trace by more than
    ``eps_trace``, raises :class:`StepTooLargeError`; the trace is then
    renormalized.
    """
    if t < 0.0:
        raise ValidationError(f"propagation time t={t!r} must be nonnegative")
    if t == 0.0:
        return rho0
    lv = liouvillian(channel)
    if dt is None:
        dt = _time_scale(channel, 1e-3, "dt")
    if not 0.0 < dt <= t:
        raise ValidationError(f"step dt={dt!r} must satisfy 0 < dt <= t={t!r}")
    n_steps, h_last = _step_plan(t, dt)
    v = _rk4_samples(lv, rho0.matrix.reshape(16), dt, h_last, [0, n_steps])
    return _unchecked_density(_revalidate(v[-1].reshape(1, 4, 4), tol)[0][0])


def x_closed_curves(x: XState, channel: ChannelSpec, times) -> tuple[np.ndarray, ...]:
    """Closed-form X-state evolution sampled on an array of times.

    Returns arrays ``(a, b, c, d, w, z)`` matching the shape of ``times``
    (populations real, coherences complex).  The fields of ``x`` may also
    be arrays that broadcast against ``times``: ``(R, 1)`` columns of R
    states against ``n`` shared times give ``(R, n)`` curves, with the same
    elementwise arithmetic as one state at a time.  Exact for catalog
    channels; raises :class:`UnsupportedChannelError` otherwise.
    """
    tau = np.asarray(times, dtype=float)
    # a NaN time compares False, so it fails
    if tau.size and not float(tau.min()) >= 0.0:
        raise ValidationError("times must be nonnegative")
    if not is_catalog(channel):
        raise UnsupportedChannelError(f"no closed form for channel type {type(channel).__name__}")
    return channel._curves(x, tau)


def propagate_x_closed(x: XState, channel: ChannelSpec, t: float) -> XState:
    """Closed-form X-state propagation to a single time ``t``.  A bare
    ``XState`` is validated as :func:`~esdkit.states.make_x` would."""
    if t < 0.0:
        raise ValidationError(f"propagation time t={t!r} must be nonnegative")
    x = make_x(x.a, x.b, x.c, x.d, x.w, x.z)
    a, b, c, d, w, z = x_closed_curves(x, channel, np.array([t]))
    return XState(float(a[0]), float(b[0]), float(c[0]), float(d[0]),
                  complex(w[0]), complex(z[0]))


def _require_densities(states: tuple, what: str) -> None:
    for entry in states:
        if not isinstance(entry, DensityMatrix):
            raise ValidationError(f"{what} must be DensityMatrix, got {type(entry).__name__}")


@dataclass(frozen=True, eq=False)
class SinglePoint:
    """Asymptotic set containing exactly one state."""

    state: DensityMatrix

    def __post_init__(self) -> None:
        _require_densities((self.state,), "single point")


@dataclass(frozen=True)
class XFamily:
    """Asymptotic set of all X states with the indicated coherences killed.

    Populations range over the full probability simplex; a coherence that
    is not forced to zero ranges over its positivity disk.
    """

    w_zero: bool
    z_zero: bool

    @functools.cached_property
    def _mask(self) -> np.ndarray:
        """The entries members may occupy, read-only: the diagonal, ``w``'s
        pair unless ``w_zero`` and ``z``'s pair unless ``z_zero``."""
        w, z = not self.w_zero, not self.z_zero
        free = np.array([[1, 0, 0, w], [0, 1, z, 0], [0, z, 1, 0], [w, 0, 0, 1]], dtype=bool)
        free.setflags(write=False)
        return free


@dataclass(frozen=True, eq=False)
class ExplicitSamples:
    """Asymptotic set given by an explicit tuple of states."""

    states: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        _require_densities(self.states, "explicit samples")


AsymptoticSet = Union[SinglePoint, XFamily, ExplicitSamples]


def _finite_states(aset: AsymptoticSet) -> tuple | None:
    """A finite set's states, ``None`` for an :class:`XFamily`; refuses any other object."""
    if isinstance(aset, SinglePoint):
        return (aset.state,)
    if isinstance(aset, ExplicitSamples):
        return aset.states
    if isinstance(aset, XFamily):
        return None
    raise ValidationError(f"unknown asymptotic set type {type(aset).__name__}")


def thermal_product(nbar: float) -> DensityMatrix:
    """Product of single-qubit thermal states, excited weight
    ``q = nbar / (2 nbar + 1)`` on each qubit."""
    q = nbar / _thermal_scale(nbar)
    single = np.diag([q, 1.0 - q]).astype(complex)
    return _unchecked_density(np.kron(single, single))


def asymptotic_set(channel: ChannelSpec) -> AsymptoticSet:
    """The set of long-time limits of a catalog channel.

    Decay drives every state to the thermal product (the ground state at
    ``nbar = 0``); independent dephasing leaves exactly the diagonal
    states; collective dephasing leaves the X states with ``w = 0``.
    Channels with a vanishing per-qubit rate leave that qubit untouched,
    so these descriptions do not apply and are refused.
    """
    if not is_catalog(channel):
        raise UnsupportedChannelError(
            f"no asymptotic set for channel type {type(channel).__name__}")
    return channel._asymptotic_set()


def set_contains(
    aset: AsymptoticSet, rho: DensityMatrix, atol: float = 1e-8
) -> bool:
    """Entrywise membership test with absolute tolerance ``atol``: a finite
    set holds ``rho`` when one of its states is within ``atol`` of it in every
    entry, an :class:`XFamily` when every entry off its members' pattern is.
    An ``atol`` that is NaN or negative raises :class:`OutOfRangeError`."""
    if not atol >= 0.0:  # NaN compares False
        raise OutOfRangeError(f"atol={atol!r} must be nonnegative")
    states = _finite_states(aset)
    if states is None:
        return float(np.abs(np.where(aset._mask, 0.0, rho.matrix)).max()) <= atol
    return any(float(np.abs(rho.matrix - member.matrix).max()) <= atol for member in states)


def format_channel_literal(channel: ChannelSpec) -> str:
    """Literal form of a catalog channel (custom channels have no literal)."""
    if not is_catalog(channel):
        raise UnsupportedChannelError(f"no literal form for channel type {type(channel).__name__}")
    return channel._prefix + ",".join(repr(getattr(channel, f.name)) for f in fields(channel))


def _read_json(path: str, what: str, key: str | None = None) -> dict:
    """The JSON object in file ``path``, which must hold a list under ``key``
    when one is named.  Every failure is a :class:`ParseError` that names
    the file as ``what``."""
    try:
        payload = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path!r}: {exc}") from None
    except ValueError as exc:  # bad JSON or bad text encoding
        raise ParseError(f"{what} {path!r} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError(f"{what} {path!r} must contain a JSON object")
    if key is not None and not isinstance(payload.get(key), list):
        raise ParseError(f"{what} {path!r} lacks a {key!r} list")
    return payload


def _load_custom_channel(path: str) -> CustomChannel:
    """Read a jump list from a JSON file.

    Schema: ``{"jumps": [{"matrix": "dense:<16 re:im pairs>", "rate": r}, ...]}``
    where the matrix uses the dense state-literal entry format (row-major)
    and the rate is read as the text ``str(r)``.
    """
    jumps = []
    for idx, entry in enumerate(_read_json(path, "custom channel file", "jumps")["jumps"]):
        if not isinstance(entry, dict) or "matrix" not in entry or "rate" not in entry:
            raise ParseError(
                f"jump {idx + 1} in {path!r} needs 'matrix' and 'rate' fields"
            )
        try:
            rate = float(str(entry["rate"]))
        except ValueError as exc:
            raise ParseError(
                f"jump {idx + 1} in {path!r}: rate literal has a non-numeric field ({exc})"
            ) from None
        jumps.append((parse_dense_entries(str(entry["matrix"])), rate))
    return CustomChannel(tuple(jumps))


def parse_channel_literal(text: str) -> ChannelSpec:
    """Parse a channel literal.

    Forms: ``decay:gamma_a,gamma_b,nbar``, ``dephase:kappa_a,kappa_b``,
    ``collective:kappa_c``, ``custom:<path to JSON jump list>``; the
    numbers are read as a state literal's are, as Python floats.
    """
    body = text.strip()
    for prefix, (kind, separators) in _LITERALS.items():
        if body.startswith(prefix):
            return kind(*_literal_numbers([body], prefix, separators)[0].tolist())
    if body.startswith("custom:"):
        return _load_custom_channel(body[len("custom:"):])
    prefixes = ", ".join(map(repr, _LITERALS))
    raise ParseError(f"channel literal must start with {prefixes} or 'custom:', got {body[:16]!r}")
