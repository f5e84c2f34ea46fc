"""Tensor-nuclear-norm regularised reconstruction by ADMM splitting.

The classic solver minimises
``0.5 * ||A(X) - b||^2 + lambda * ||X||_nuclear`` with an auxiliary
variable and a scaled multiplier, alternating a singular value shrinkage
step, a closed-form Cartesian data-consistency step, and a multiplier
update. The generalised solver runs the same loop with per-iteration
hyperparameters: per-slice thresholds (absolute, or relative to each
slice's largest singular value through a sigmoid weight), a data weight
``gamma`` replacing ``1/mu`` so that ``gamma = 0`` stays well defined,
and optionally a different unitary transform per iteration. Classic mode
is its constant schedule, bit for bit.

Each iteration with multiplier rate ``eta = 1`` is over-relaxed, with
``alpha = RELAXATION = 1.8`` (Eckstein & Bertsekas, Math. Program. 55,
1992; Boyd et al. 2011, section 3.4.3): the x-step and the multiplier
update see ``Zr = alpha Z + (1 - alpha) X`` in place of the shrinkage
output ``Z``. For a constant schedule this changes the path, not the
minimizer, and takes a quarter (``rel_tol`` 1e-4) to two fifths (1e-6)
fewer iterations. That convergence result covers a unit multiplier step
only, and with ``eta = 1.5`` the relaxed loop diverges, so iterations at
any other ``eta`` run plain ADMM (``alpha = 1``).

The solver iterates in k-space, where the shrinkage and the nuclear norm
are unchanged (the per-frame centred 2D DFT is unitary and commutes with
every mode-3 transform) and the data-consistency step touches only the
sampled entries. Off the mask it gives ``X = Zr - L``, so the multiplier
lives on the sampled entries alone; one inverse DFT ends the solve.

The loop starts from the time-averaged k-space (k-t FOCUSS's baseline;
Jung et al., MRM 61(1), 2009), not the zero-filled ``A^H b``: X0 is ``b``
on the samples and, off them, the mean over frames of the samples at the
same entry (0 where no frame sampled it). With ``L0 = 0``, L still
vanishes off the samples; the start changes the path, not the minimizer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DivergenceError, ParameterError
from .errors import _check_count, _check_real, _check_seed
from .mri import KSpaceVector, SamplingSpec, _centered_fft2
from .tensor import ComplexTensor3
from .transforms import UnitaryTransform
from .tsvd import _per_slice, _shrink, _threshold_vector, t_tsvt, ttnn

__all__ = [
    "MAX_ITERS",
    "RELAXATION",
    "AdmmConfig",
    "IterationParams",
    "IterationStats",
    "ReconReport",
    "z_update",
    "solve",
    "solve_generalized",
]

# Largest max_iters: ``solve`` lists one schedule entry per allowed iteration.
MAX_ITERS = 1_000_000

# Over-relaxation factor alpha in (0, 2) of the iterations with eta = 1; the
# others run plain ADMM (alpha = 1).
RELAXATION = 1.8


@dataclass
class AdmmConfig:
    """Hyperparameters of the classic solver."""

    lam: float
    mu: float
    transform: UnitaryTransform
    eta: float = 1.0
    max_iters: int = 300
    rel_tol: float = 1e-6
    record_history: bool = True

    def __post_init__(self):
        _check_real("lambda", self.lam)
        _check_real("mu", self.mu, positive=True)
        _check_real("eta", self.eta, positive=True)
        _check_count("max_iters", self.max_iters, most=MAX_ITERS)
        _check_real("rel_tol", self.rel_tol, finite=False)


@dataclass
class IterationParams:
    """Per-iteration hyperparameters of the generalised solver.

    Exactly one of ``tau`` (absolute thresholds, scalar or length-``nt``)
    and ``a`` (relative threshold weights, mapped through a sigmoid and
    scaled by each slice's largest transformed singular value) must be
    given. ``transform=None`` falls back to the solver's default.

    Construction checks ``gamma``, ``eta`` and ``tau`` finite and ``>= 0``
    and ``a`` not NaN; lengths and transform sizes wait for the image.
    """

    gamma: float
    eta: float
    tau: object = None
    a: object = None
    transform: UnitaryTransform | None = None

    def __post_init__(self):
        _check_real("gamma", self.gamma)
        _check_real("eta", self.eta)
        self._thresholds(None)

    def _thresholds(self, nt):
        """``tau`` or the sigmoid weights of ``a``, one per slice; ``nt=None`` admits any length."""
        if (self.tau is None) == (self.a is None):
            raise ParameterError("exactly one of tau (absolute) and a (relative) is required")
        return _threshold_vector(self.tau, nt) if self.a is None else _relative_weights(self.a, nt)


@dataclass(frozen=True)
class IterationStats:
    """One iteration of a solve's history.

    ``primal_residual`` is ``||Z - X||`` with ``Z`` the shrinkage output
    before over-relaxation. ``elapsed_ms`` times the iteration's one
    ``_iterate`` call: the shrink, the relaxation, the x-step and the
    multiplier update. It excludes the iteration's statistics,
    mainly the SVD of ``ttnn(X)``: about 30% of an iteration's wall time
    at 128x128x16 on 2 cores.
    """

    iteration: int
    objective: float
    fidelity: float
    ttnn: float
    primal_residual: float
    elapsed_ms: float


@dataclass
class ReconReport:
    """Result of a solver run with optional per-iteration history."""

    reconstruction: ComplexTensor3
    iterations_run: int
    history: list[IterationStats] = field(default_factory=list)


def z_update(
    x_prev: ComplexTensor3,
    l_prev: ComplexTensor3,
    lam: float,
    mu: float,
    transform: UnitaryTransform,
    threads: int = 0,
) -> ComplexTensor3:
    """Shrinkage step: prox of ``(lam/mu) * ||.||_nuclear`` at ``X + L``."""
    _check_real("mu", mu, positive=True)
    _check_real("lambda", lam)
    return t_tsvt(x_prev + l_prev, lam / mu, transform, threads=threads)


def _sampled_x(k: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """The x-step ``(gamma b + k) / (gamma + 1)`` at the k-space samples ``k`` of ``Z - L``."""
    out = gamma * b
    out += k  # in place: one m-vector fewer at the solver's peak
    out /= gamma + 1.0
    return out


def _sigmoid(v: float) -> float:
    """``1 / (1 + exp(-v))``; 0.0 where ``exp(-v)`` overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def _relative_weights(a, nt: int | None) -> np.ndarray:
    """``sigmoid(a_i)`` for each of the ``nt`` slices; ``a`` may be a scalar."""
    weights = np.atleast_1d(_per_slice(a, nt, "relative weight"))
    if np.isnan(weights).any():
        raise ParameterError("relative weights must not be NaN")
    return np.array([_sigmoid(v) for v in weights.tolist()])


def _iterate(state, b: KSpaceVector, index: np.ndarray, transform: UnitaryTransform,
             taus: np.ndarray, params: IterationParams, threads: int):
    """One iteration in k-space: the shrink, the relaxation, the x-step and the multiplier update.

    ``state`` is ``(grid, x_s, l_s)``: X in k-space, which is consumed, and
    X and L on the grid entries ``index``, the samples. ``taus`` are the
    thresholds, or the sigmoid weights if ``params.a`` is set. Returns the
    new state and ``(off, alpha, ||z_s - x_new||, rel)``, with ``off`` =
    ``||Z - X_old||`` off the samples and ``rel`` the relative change of X.
    """
    grid, x_s, l_s = state
    grid.reshape(-1)[index] = x_s + l_s  # grid is Y = X + L
    y = ComplexTensor3._wrap(grid.view())
    if params.tau is not None:
        z = t_tsvt(y, taus, transform, threads=threads).slices
    else:  # taus are sigmoid weights: slice k's threshold is taus[k] * its top sigma
        z = _shrink(transform.apply(y), transform, threads, lambda k, s: taus[k] * s[0]).slices
    z.flags.writeable = True  # a fresh array that this step alone holds
    z_s = z.reshape(-1)[index]
    grid.reshape(-1)[index] = x_s  # grid is X_old
    # Relaxation is proven for eta = 1 only: at eta = 1.5 and alpha = 1.8 the loop diverges.
    alpha = RELAXATION if params.eta == 1.0 else 1.0
    # Off the mask z becomes Zr, which is X_new there, in place; off is ||Z - X_old|| there.
    z -= grid
    z.reshape(-1)[index] = 0
    off = float(np.linalg.norm(z))
    z *= alpha
    z += grid
    zr_s = x_s + alpha * (z_s - x_s)
    x_new = _sampled_x(zr_s - l_s, b.values, params.gamma)
    z.reshape(-1)[index] = x_new  # z is X_new
    change = math.hypot(alpha * off, float(np.linalg.norm(x_new - x_s)))
    size = float(np.linalg.norm(grid))
    rel = change / size if size else (0.0 if change == 0.0 else math.inf)
    zr_s -= x_new  # Zr - X_new in place: one m-vector fewer at the peak
    l_new = np.subtract(l_s, params.eta * zr_s, out=zr_s)
    return (z, x_new, l_new), (off, alpha, float(np.linalg.norm(z_s - x_new)), rel)


def solve(
    b: KSpaceVector,
    spec: SamplingSpec,
    config: AdmmConfig,
    threads: int = 0,
) -> ReconReport:
    """Run the classic solver from the time-averaged initial guess.

    Starts at the time-averaged ``X0`` of the module docstring and
    ``L0 = 0``, and iterates, in this order, the shrinkage ``Z`` of
    ``X + L``, the over-relaxation ``Zr = alpha Z + (1 - alpha) X``, the
    data-consistency step on ``Zr - L`` and the multiplier update
    ``L - eta (Zr - X_new)``, until the relative change of ``X`` drops
    below ``rel_tol`` or ``max_iters`` is reached. With ``eta = 1`` (the
    default), ``alpha = RELAXATION = 1.8`` (Eckstein & Bertsekas 1992),
    which leaves the minimizer unchanged and reaches it in fewer
    iterations; with any other ``eta``, ``alpha = 1`` (plain ADMM). This
    is the generalised solver on the constant schedule ``tau = lam/mu``,
    ``gamma = 1/mu`` with a fixed ``eta`` and transform.

    Raises
    ------
    DivergenceError
        If any iterate or reported quantity becomes non-finite; the
        iteration index is attached.
    """
    mu = config.mu
    params = IterationParams(gamma=1.0 / mu, eta=config.eta, tau=config.lam / mu)
    return solve_generalized(
        b, spec, [params] * config.max_iters, config.transform, config.rel_tol,
        config.record_history, config.lam, threads,
    )


def solve_generalized(
    b: KSpaceVector,
    spec: SamplingSpec,
    schedule: list[IterationParams],
    init_transform: UnitaryTransform,
    rel_tol: float = 0.0,
    record_history: bool = True,
    report_lambda: float = 0.0,
    threads: int = 0,
) -> ReconReport:
    """Run the per-iteration-parameter scheme over a schedule.

    Each schedule entry supplies the thresholds (absolute ``tau`` or
    relative ``a``), the data weight ``gamma``, the multiplier rate
    ``eta``, and optionally its own transform (``init_transform`` is the
    default). Entries with ``eta = 1`` are over-relaxed by ``RELAXATION``,
    the others run plain ADMM, as in :func:`solve`; a schedule that varies
    has no fixed minimizer, so relaxation changes its output. The loop
    stops early once the relative change of ``X`` drops below
    ``rel_tol``. The reported objective uses
    ``report_lambda`` as the nuclear-norm weight, since the generalised
    scheme has no single regularisation parameter.

    All checks run before the first iteration: ``rel_tol >= 0`` (``inf``
    allowed), ``report_lambda`` finite and ``>= 0``, ``threads`` an
    integer ``>= 0``, and each distinct entry's transform size and
    threshold length against ``nt``, naming the entry's first iteration.
    Entries are told apart by identity and each is checked once; the loop
    shrinks with the transform and thresholds (or relative weights) that
    its check returned, so a schedule built as ``[params] * n`` costs one
    check.
    """
    if not schedule:
        raise ParameterError("schedule must contain at least one entry")
    _check_real("rel_tol", rel_tol, finite=False)
    _check_real("report_lambda", report_lambda)
    _check_seed(threads, "threads")
    if spec is not b.spec and not np.array_equal(spec.mask, b.spec.mask):
        raise DimensionError("k-space vector is inconsistent with the sampling spec")
    nt = spec.dims[2]
    checked = {}  # each distinct entry, by identity: its transform and taus (or relative weights)
    for n, params in enumerate(schedule, start=1):
        if id(params) in checked:
            continue
        transform = params.transform or init_transform
        try:
            if transform.size != nt:
                raise DimensionError(f"transform size {transform.size} does not match nt={nt}")
            checked[id(params)] = transform, params._thresholds(nt)
        except (DimensionError, ParameterError) as exc:
            raise type(exc)(f"iteration {n} {exc}") from exc
    # grid is X in k-space between iterations; L is zero off the samples l_s,
    # since there Zr is X_new and the multiplier update adds 0.
    index = spec._grid_index()
    grid, x_s, l_s = spec.scatter(b.values), b.values, np.zeros(spec.m, dtype=np.complex128)
    history: list[IterationStats] = []
    # The loop checks finiteness itself, so overflow raises DivergenceError, not a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        # The time-averaged start: off the samples, each entry's mean over the frames sampling it.
        counts = spec.mask.sum(axis=0)
        np.copyto(grid, grid.sum(axis=0) / np.maximum(counts, 1), where=~spec.mask)
        for n, params in enumerate(schedule, start=1):
            transform, taus = checked[id(params)]
            tic = time.perf_counter()
            (grid, x_s, l_s), (off, alpha, dz, rel) = _iterate(
                (grid, x_s, l_s), b, index, transform, taus, params, threads)
            elapsed_ms = (time.perf_counter() - tic) * 1e3
            if not all(np.isfinite(v).all() for v in (grid, x_s, l_s)):
                raise DivergenceError(f"non-finite iterate at iteration {n}", iteration=n)
            if record_history:
                fidelity = 0.5 * float(np.linalg.norm(x_s - b.values) ** 2)
                nuclear = ttnn(ComplexTensor3._wrap(grid.view()), transform)
                objective = fidelity + report_lambda * nuclear
                if not np.isfinite(objective):
                    raise DivergenceError(f"non-finite objective at iteration {n}", iteration=n)
                # Off the mask Z - X_new is (1 - alpha) (Z - X_old).
                primal = math.hypot((alpha - 1.0) * off, dz)
                history.append(IterationStats(n, objective, fidelity, nuclear, primal, elapsed_ms))
            if rel < rel_tol:
                break
    # The schedule is nonempty, so n is the last iteration run.
    return ReconReport(ComplexTensor3._wrap(_centered_fft2(grid, np.fft.ifft)), n, history)
