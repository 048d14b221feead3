"""Numerical path-ordered propagator for the full SU(2) A-C phase operator.

The spin couples to the motion through the Hermitian generator

    G(t) = (g*mu_B/(hbar*c^2)) * S . (E(r(t)) x v(t))      [rad/s]

and the propagator is the path-ordered product of per-step exponentials
exp(-i*G*dt), sampled at step midpoints (first-order Magnus per step: exactly
unitary, second-order accurate).  The sign convention matches the closed-form
phase: for planar motion the |1><1| element equals exp(-i*Phi_AC).

For planar motion every G(t) is proportional to Sz, all steps commute, and the
propagator is diagonal; tilting the disk mixes in Sy and path ordering starts
to matter.  The leading correction is the second-order Dyson commutator term,
exposed by :func:`dyson_second_order`, and probed by comparing the path-ordered
product against the reverse-ordered one (:func:`path_ordered_propagator` with
``reverse=True``); a literal time-reversed traversal would just invert the
propagator exactly and show nothing.

The propagator and the state oracle share one stepper,
:func:`_stream_product`.  It walks the midpoint grid in blocks of
``_CHUNK_STEPS`` steps, so memory does not grow with the step count.  While
every coupling axis k*(E x v) lies exactly along z (planar motion) it works
on the (N, 3) axes alone: G = a_z*Sz, so it bounds the step by |a_z|*max|m|
and sums a_z, and never builds a (N, dim, dim) generator stack, exponentiates
or multiplies matrices.  For planar motion the forward and reverse products
are therefore bitwise equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericPreconditionError
from .geometry import DiskTrajectory, FieldConfig, velocity
from .phase import coupling_constant
from .physics import (
    CODATA,
    NVParameters,
    PhysicalConstants,
    SpinState,
    ground_state_hamiltonian,
    spin_operators,
    TWO_PI,
)

MAX_STEP_PHASE = 0.5  # rad; per-step rotation bound for the midpoint exponential
_CHUNK_STEPS = 8192  # steps per streamed block; bounds the live (steps, dim, dim) stacks


@dataclass(frozen=True)
class PathSampling:
    """Discretization of a trajectory segment for path-ordered integration."""

    t_start: float
    t_end: float
    steps: int
    trajectory: DiskTrajectory
    field: FieldConfig

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    def midpoints(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Midpoints of steps start..stop-1 (default: all steps)."""
        stop = self.steps if stop is None else stop
        return self.t_start + (np.arange(start, stop) + 0.5) * self.dt


@dataclass(frozen=True)
class Propagator:
    """Unitary result of the path-ordered integration."""

    U: np.ndarray
    dimension: int

    def __post_init__(self):
        if unitarity_defect(self.U) >= 1e-10:
            raise ValueError("propagator is not unitary to 1e-10")

    def abelian_phase(self) -> float:
        """Phi such that <m_max|U|m_max> = exp(-i*m_max*Phi) (planar case)."""
        m_max = (self.dimension - 1) / 2.0
        return float(-np.angle(self.U[-1, -1]) / m_max)

    def offdiagonal_norm(self) -> float:
        off = self.U - np.diag(np.diag(self.U))
        return float(np.max(np.abs(off)))


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry norm of U^dag U - I."""
    dim = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))


_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [
    (0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
    (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0),
]:
    _LEVI_CIVITA[_i, _j, _k] = _s


def _quadratic_diagonal_shift(e_vec, ops, params, mass, constants) -> np.ndarray:
    """Diagonal of (mu^2 E^2 - (mu S x E)^2)/(2 m c^4 hbar) in rad/s, mu = g*mu_B.

    These are the two quadratic-in-E Hamiltonian terms dropped from the
    coupling; only their level shifts (the echo-cancellable part) are kept.
    """
    mu = params.g * constants.mu_B
    sxe = np.einsum("ijk,jab,k->iab", _LEVI_CIVITA, ops.vector(), e_vec)
    sq = np.einsum("iab,ibc->ac", sxe, sxe)
    e_sq = float(e_vec @ e_vec)
    full = mu * mu * (e_sq * np.eye(ops.dimension) - sq) / (
        2.0 * mass * constants.c**4 * constants.hbar
    )
    return np.real(np.diag(full))


def _coupling_axes(
    sampling: PathSampling,
    params: NVParameters,
    constants: PhysicalConstants,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """Coupling axes k*(E x v) [rad/s] at the midpoints of steps start..stop-1
    (default: all) as an (N, 3) array, so that G = axes . S."""
    traj, cfg = sampling.trajectory, sampling.field
    t_mid = sampling.midpoints(start, stop)
    e_vec = cfg.magnitude * cfg.direction
    v = velocity(traj, t_mid)                      # (N, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        axes = coupling_constant(params, constants) * np.cross(
            np.broadcast_to(e_vec, v.shape), v
        )
    if not np.all(np.isfinite(axes)):
        raise NumericPreconditionError(
            "coupling axis k*(E x v) is not finite: field or velocity too large"
        )
    return axes


def _spin_generators(axes: np.ndarray, dimension: int) -> np.ndarray:
    """G = axes . S for each axis, as a (N, dim, dim) stack."""
    # one complex matrix product, (N, 3) @ (3, dim*dim)
    ops = spin_operators(dimension).vector().reshape(3, -1)
    gens = axes.astype(complex) @ ops
    return gens.reshape(-1, dimension, dimension)


def _generator_grid(
    sampling: PathSampling,
    params: NVParameters,
    dimension: int,
    constants: PhysicalConstants,
    start: int = 0,
    stop: int | None = None,
) -> tuple[np.ndarray, float]:
    """Midpoint-sampled generators of steps start..stop-1 (default: all) as a
    (steps, dim, dim) stack."""
    axes = _coupling_axes(sampling, params, constants, start, stop)
    return _spin_generators(axes, dimension), sampling.dt


def _check_step_bound(step_phase: float) -> None:
    if not step_phase < MAX_STEP_PHASE:  # also refuses a NaN bound
        raise NumericPreconditionError(
            f"step too coarse: dt*max||G|| = {step_phase:.3g} rad, not below {MAX_STEP_PHASE}"
        )


def _check_step_resolution(gens: np.ndarray, dt: float) -> None:
    # ||G||_2 <= max-row-sum bound; cheap and tight enough for the 0.5 rad gate.
    _check_step_bound(dt * float(np.max(np.sum(np.abs(gens), axis=-1))))


def _step_unitaries(gens: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i*G*dt) for each Hermitian G in the stack, via eigendecomposition."""
    w, vecs = np.linalg.eigh(gens)
    phases = np.exp(-1j * w * dt)
    return np.einsum("nij,nj,nkj->nik", vecs, phases, vecs.conj())


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[-1] @ ... @ mats[0] by pairwise tree reduction."""
    while mats.shape[0] > 1:
        pairs = mats.shape[0] // 2
        head = np.matmul(mats[1 : 2 * pairs : 2], mats[0 : 2 * pairs : 2])
        if mats.shape[0] % 2:
            mats = np.concatenate([head, mats[2 * pairs :]])
        else:
            mats = head
    return mats[0]


def _stream_product(
    sampling: PathSampling,
    params: NVParameters,
    dimension: int,
    constants: PhysicalConstants,
    const_diag: np.ndarray,
    reverse: bool,
) -> np.ndarray:
    """Ordered product of the midpoint step exponentials of G(t) + diag(const_diag),
    walked in blocks of ``_CHUNK_STEPS`` steps.

    While every coupling axis seen so far lies exactly along z, every G is
    a_z*Sz (``spin_operators`` keeps Sx and Sy zero on the diagonal), the steps
    commute, and their product collapses exactly to one exponential of the
    summed phases m*sum(a_z)*dt; this works on the (N, 3) axes alone, keeps the
    result diagonal and at unit modulus, and never builds or diagonalises a
    step.  From the first block with a nonzero x or y component on, each
    block's step exponentials are multiplied out and folded into a running
    product, in path order or (``reverse``) anti-path order.  The per-step
    rotation bound applies to the motional coupling; the constant diagonal
    rates are exponentiated exactly at any step size while diagonal, and join
    the bound check once they enter the step exponentials.
    """
    dt = sampling.dt
    m = np.real(np.diag(spin_operators(dimension).Sz))
    m_max = float(np.max(np.abs(m)))
    rate_z = 0.0  # summed z axis components of the diagonal prefix
    product = None
    for start in range(0, sampling.steps, _CHUNK_STEPS):
        stop = min(start + _CHUNK_STEPS, sampling.steps)
        axes = _coupling_axes(sampling, params, constants, start, stop)
        if product is None and not np.any(axes[:, :2]):
            # ||a_z*Sz|| = |a_z|*max|m|: the row-sum bound of the diagonal G
            a_z = np.ascontiguousarray(axes[:, 2])  # one contiguous row, summed pairwise
            _check_step_bound(dt * (float(np.max(np.abs(a_z))) * m_max))
            rate_z += a_z.sum()
            continue
        gens = _spin_generators(axes, dimension)
        _check_step_resolution(gens, dt)
        if product is None:
            # the diagonal prefix of steps 0..start-1, collapsed exactly
            product = np.diag(np.exp(-1j * (dt * (m * rate_z) + const_diag * (start * dt))))
        if np.any(const_diag):
            # the whole generator must satisfy the per-step rotation bound
            gens = gens + np.diag(const_diag)
            _check_step_resolution(gens, dt)
        steps = _step_unitaries(gens, dt)
        if reverse:
            product = product @ _ordered_product(steps[::-1])
        else:
            product = _ordered_product(steps) @ product
    if product is None:
        span = sampling.t_end - sampling.t_start
        product = np.diag(np.exp(-1j * (dt * (m * rate_z) + const_diag * span)))
    return product


def path_ordered_propagator(
    sampling: PathSampling,
    params: NVParameters,
    dimension: int = 3,
    constants: PhysicalConstants = CODATA,
    reverse: bool = False,
) -> Propagator:
    """Path-ordered propagator over the sampled trajectory segment.

    ``reverse=True`` composes the same per-step exponentials in reversed path
    order (the anti-ordered product).  For commuting planar generators this
    changes nothing (the two results are bitwise equal); when tilted, forward
    minus reverse is twice the second-order Dyson term to leading order.
    """
    U = _stream_product(
        sampling, params, dimension, constants, np.zeros(dimension), reverse
    )
    return Propagator(U=U, dimension=dimension)


def dyson_second_order(
    sampling: PathSampling,
    params: NVParameters,
    dimension: int = 3,
    constants: PhysicalConstants = CODATA,
) -> np.ndarray:
    """Ordered double integral (1/2) * iint_{t' < t} [G(t), G(t')] dt' dt.

    This is the leading path-ordering correction beyond exp(-i*integral(G)):
    the Magnus expansion of the propagator is exp(O1 + O2 + ...) with
    O2 = -(this term).  It vanishes identically for planar motion and scales
    quadratically in the field strength.
    """
    gens, dt = _generator_grid(sampling, params, dimension, constants)
    _check_step_resolution(gens, dt)
    cum = np.cumsum(gens, axis=0)
    prior = cum - gens  # sum of all strictly earlier generators
    forward = np.einsum("nij,njk->ik", gens, prior)
    backward = np.einsum("nij,njk->ik", prior, gens)
    return 0.5 * dt * dt * (forward - backward)


def effective_hamiltonian_evolve(
    sampling: PathSampling,
    params: NVParameters,
    initial: SpinState,
    constants: PhysicalConstants = CODATA,
    include_static: bool = True,
    detuning_hz: float = 0.0,
    quadratic_mass: float | None = None,
) -> SpinState:
    """Integrate i*hbar d|psi>/dt = [H_s + hbar*G(t)] |psi> with midpoint steps.

    Serves as the independent oracle for the echo-sequence engine.  In the
    rotating frame (``include_static=False``) only the motional coupling acts;
    ``detuning_hz`` adds an explicit residual precession of |1> against |0>.
    The state is advanced by the polar factor of the interval propagator, so
    its norm is preserved to rounding however many intervals it is carried
    through.
    """
    dimension = initial.amplitudes.size
    const_diag = np.zeros(dimension)
    if include_static and dimension == 3:
        const_diag = const_diag + np.real(
            np.diag(ground_state_hamiltonian(params, constants))
        ) / constants.hbar
    if detuning_hz != 0.0:
        if dimension != 3:
            raise ValueError("detuning bookkeeping is defined for spin-1 states")
        const_diag = const_diag + np.array([0.0, 0.0, TWO_PI * detuning_hz])
    if quadratic_mass is not None:
        const_diag = const_diag + _quadratic_diagonal_shift(
            sampling.field.magnitude * sampling.field.direction,
            spin_operators(dimension),
            params,
            quadratic_mass,
            constants,
        )
    U = _stream_product(sampling, params, dimension, constants, const_diag, False)
    return SpinState(_nearest_unitary(U) @ initial.amplitudes)


def _nearest_unitary(u: np.ndarray) -> np.ndarray:
    """Polar (nearest-unitary) factor of a propagator checked against the 1e-10
    unitarity bound of :class:`Propagator`.

    Each eigendecomposed step exponential is unitary only to ~1e-15, and that
    defect adds up along the product (about 2.5e-13 over 1e4 tilted steps), so
    a state carried through many intervals would drift off unit norm.
    """
    Propagator(U=u, dimension=u.shape[0])
    w, _, vh = np.linalg.svd(u)
    return w @ vh
