"""Reconstruction algorithms behind a common report interface.

Seven families: dense least squares (pinv), correlation and its
differential variant (corr/dgi), gradient descent with exact step (gd),
conjugate gradient on the normal equations (cgd), Poisson maximum
likelihood with backtracking line search (poisson), per-measurement
alternating projection (ap), and augmented-Lagrangian l1 minimization
with a DCT or gradient prior (cs-dct/cs-tv).

Every solver has one call shape, solver(patterns, meas, width, height,
stop=None); the direct solvers (pinv, corr, dgi) accept and ignore stop.
Every solve runs under one protocol, held in one place, _Run: the count
and image-shape checks (_check_counts), made before any product, numpy's
floating-point warnings off, the timing, the norm of each residual, the
trace, the finiteness check and the report.  An iterative solve stops
when the change of the measurement residual norm ||b - Ax|| between
consecutive iterations falls below a threshold (default 1e-2), with a
minimum of 30 iterations and a cap of 3x the pixel count.  pinv, corr,
dgi, ap and cs-dct/cs-tv hand _Run a residual computed afresh from x;
gd, cgd and poisson hand it the b - Ax they carry forward by recurrence.

Products with the m x n pattern matrix A dominate every solve, so each
loop carries Ax (and A times its search direction) forward instead of
recomputing it.  Per iteration:

- gd: 1 A + 1 A^T (A p for the step, A^T for the gradient; Ax -= step * Ap)
- cgd: 1 A + 1 A^T (b - Ax is tracked by recurrence for the stop test)
- poisson: 1 A + 1 A^T, plus 1 A once at x0, checked by the objective's rule (each
  Armijo trial is the O(m) likelihood at Ax + step * Ap; the accepted one gives the next Ax)
- ap: m row updates plus 1 A for the residual; each row is one dot product
  and four n-length ufunc passes, with no allocation
- cs-dct/cs-tv: 1 A + 2 A^T per outer iteration, plus 1 A + 1 A^T per inner
  CG step, plus 1 A once; cgd and the ALM x-update share one CG loop, _cg

gd_solve and ap_solve call gd_optimal_step and ap_update by their module
names, so a wrapper set on this module sees every step and row update.
"""

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidArgumentError,
    LineSearchFailureError,
    NumericalFailureError,
    SingularSystemError,
    UnknownSolverError,
    DomainError,
)
from .model import Image, MeasurementSet, PatternSet, _check_int, _check_real, _check_scaled
from .transforms import LinearOperator, dct_operator, gradient_operator, soft_threshold

__all__ = [
    "StopCriteria",
    "SolverReport",
    "pinv_solve",
    "corr_reconstruct",
    "dgi_reconstruct",
    "gd_gradient",
    "gd_optimal_step",
    "gd_solve",
    "cgd_solve",
    "poisson_objective",
    "poisson_gradient",
    "backtracking_search",
    "poisson_solve",
    "ap_update",
    "ap_solve",
    "solver_registry",
    "get_solver",
]

EPS_DIV = 1e-12  # sign-preserving clamp for a_i.x denominators
MAX_SHRINKS = 200  # backtracking budget of the Armijo line search
ARMIJO_ALPHA = 0.1  # sufficient-decrease fraction of the Armijo test
ARMIJO_BETA = 0.5  # step shrink factor of the backtracking search
ALM_RHO = 1.05  # geometric growth of the ALM penalty weight, which starts at 1
ALM_MU_MAX = 1e6  # cap of the ALM penalty weight
CGD_EXACT_RTOL = 1e-12  # cgd's exact stop, relative to max(1, ||A^T b||)


@dataclass
class StopCriteria:
    """Shared iteration-stopping protocol for all iterative solvers."""

    residual_change_threshold: float = 1e-2
    min_iterations: int = 30
    max_iterations_factor: float = 3.0

    def __post_init__(self):
        for name in ("residual_change_threshold", "max_iterations_factor"):
            setattr(self, name, _check_real(getattr(self, name), name))
        self.min_iterations = _check_int(self.min_iterations, "min_iterations", 0)

    def max_iterations(self, n: int) -> int:
        cap = _check_scaled(self.max_iterations_factor, n, "max_iterations_factor",
                            "the iteration cap")
        return max(self.min_iterations, int(round(cap)), 1)


@dataclass
class SolverReport:
    """Reconstruction plus per-iteration trace.

    trace entries are (iteration, residual_norm, objective_value).
    linesearch_trials (poisson) and inner_cg_steps (cs-dct/cs-tv) count
    Armijo objective trials and inner-CG steps over the whole solve.
    """

    image: Image
    iterations: int
    wall_time: float
    trace: list
    terminated_by: str  # residual_change | max_iterations | exact
    warning_count: int = 0
    linesearch_trials: int = 0
    inner_cg_steps: int = 0


def _check_counts(m: int, n: int, meas_m: int, width: int, height: int) -> None:
    """The one rule that m readings, an m x n pattern matrix and a width x
    height image make a problem: equal m >= 1, and width * height = n."""
    if meas_m != m:
        raise InvalidArgumentError(f"measurement count {meas_m} != pattern count {m}")
    if m == 0:
        raise InvalidArgumentError("no measurements (m = 0): nothing to reconstruct from")
    if _check_int(width, "width", 1) * _check_int(height, "height", 1) != n:
        raise InvalidArgumentError(f"image shape {width}x{height} does not hold the "
                                   f"{n} pattern pixels")


class _Run:
    """One solve's protocol: ``with _Run(patterns, meas, width, height, stop)
    as run:`` checks the counts before any product, runs the solve with
    numpy's warnings off (record's and report's finiteness checks find an
    overflow at any BLAS thread count), times it, takes the norm of each
    residual it is handed, records the trace and decides when to stop.
    Each run enters its own np.errstate, which is not re-entrant."""

    def __init__(self, patterns: PatternSet, meas: MeasurementSet, width: int, height: int,
                 stop: Optional[StopCriteria] = None):
        _check_counts(patterns.m, patterns.n, meas.m, width, height)
        self.width, self.height = width, height
        self.stop = stop or StopCriteria()
        self.max_iter = self.stop.max_iterations(patterns.n)
        self.t0 = time.perf_counter()
        self.k = 0
        self.trace = []
        self.terminated_by = None

    def __enter__(self):
        self._quiet = np.errstate(all="ignore")
        self._quiet.__enter__()
        return self

    def __exit__(self, *exc):
        self._quiet.__exit__(*exc)

    def record(self, residual, obj=None) -> bool:
        """Logs iteration k with the norm of residual and obj, by default its
        square; True once the residual-change / min / max rule says stop."""
        self.k += 1
        rnorm = float(np.linalg.norm(residual))
        obj = rnorm**2 if obj is None else obj
        if not (np.isfinite(rnorm) and np.isfinite(obj)):
            raise NumericalFailureError("residual diverged", iteration=self.k)
        change = abs(rnorm - self.trace[-1][1]) if self.trace else np.inf
        self.trace.append((self.k, rnorm, obj))
        if self.k >= self.stop.min_iterations and change < self.stop.residual_change_threshold:
            self.terminated_by = "residual_change"
        elif self.k >= self.max_iter:
            self.terminated_by = "max_iterations"
        return self.terminated_by is not None

    def report(self, x, residual=None, warnings=0, **counts) -> SolverReport:
        """A given residual marks an exact solve; with no iteration recorded,
        its trace is the single entry (0, rnorm, rnorm^2) of its norm.  A
        non-finite norm is an overflow, never an exact solve."""
        if residual is not None:
            rnorm = float(np.linalg.norm(residual))
            if not np.isfinite(rnorm):
                raise NumericalFailureError("residual diverged", iteration=self.k)
            self.terminated_by = "exact"
            self.trace = self.trace or [(0, rnorm, rnorm**2)]
        return SolverReport(
            image=Image(self.width, self.height, x),
            iterations=self.k,
            wall_time=time.perf_counter() - self.t0,
            trace=self.trace,
            terminated_by=self.terminated_by,
            warning_count=warnings,
            **counts,
        )


# ---------------------------------------------------------------- non-iterative


def pinv_solve(
    patterns: PatternSet, meas: MeasurementSet, width: int, height: int,
    stop: Optional[StopCriteria] = None,
) -> SolverReport:
    """Dense least squares x = (A^T A)^{-1} A^T b; requires m >= n full rank."""
    with _Run(patterns, meas, width, height, stop) as run:
        A, b = patterns.rows, meas.values
        if patterns.m < patterns.n:
            raise SingularSystemError(
                f"m={patterns.m} < n={patterns.n}: normal equations are rank-deficient"
            )
        x, _, rank, s = np.linalg.lstsq(A, b, rcond=None)
        cond_normal = np.inf if s[-1] <= 0 else (s[0] / s[-1]) ** 2
        if rank < patterns.n or cond_normal > 1e12:
            raise SingularSystemError(
                f"A^T A condition estimate {cond_normal:.2e} exceeds 1e12"
            )
        return run.report(x, residual=b - A @ x)


def corr_reconstruct(
    patterns: PatternSet, meas: MeasurementSet, width: int, height: int,
    stop: Optional[StopCriteria] = None,
) -> SolverReport:
    """Conventional correlation: x = {b_i a_i} - {b_i}{a_i}."""
    with _Run(patterns, meas, width, height, stop) as run:
        A, b = patterns.rows, meas.values
        x = (b @ A) / patterns.m - b.mean() * A.mean(axis=0)
        return run.report(x, residual=b - A @ x)


def dgi_reconstruct(
    patterns: PatternSet, meas: MeasurementSet, width: int, height: int,
    stop: Optional[StopCriteria] = None,
) -> SolverReport:
    """Differential correlation: x = {b_i a_i} - ({b_i}/{s_i}) {s_i a_i}."""
    with _Run(patterns, meas, width, height, stop) as run:
        A, b, s = patterns.rows, meas.values, patterns.intensities
        s_mean = s.mean()
        if s_mean == 0:
            raise InvalidArgumentError("all patterns are zero: mean intensity is 0")
        x = (b @ A) / patterns.m - (b.mean() / s_mean) * ((s @ A) / patterns.m)
        return run.report(x, residual=b - A @ x)


# ------------------------------------------------------------- gradient descent


def _gd_grad(A: np.ndarray, Ax: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2 A^T (Ax - b) from a given Ax: the arithmetic of gd_gradient and gd_solve."""
    return 2.0 * (A.T @ (Ax - b))


def gd_gradient(patterns: PatternSet, x: np.ndarray, meas: MeasurementSet) -> np.ndarray:
    """Gradient of ||Ax - b||^2: p = 2 A^T (Ax - b)."""
    A = patterns.rows
    return _gd_grad(A, A @ x, meas.values)


def gd_optimal_step(Ap: np.ndarray, r: np.ndarray) -> Optional[float]:
    """gd_solve's exact minimizing step along a direction p, from Ap.

    step = -(Ap.r) / (Ap.Ap) with r = b - Ax.  Returns None when Ap = 0
    (converged: no progress possible along p).
    """
    denom = float(Ap @ Ap)
    if denom == 0.0:
        return None
    return -float(Ap @ r) / denom


def gd_solve(
    patterns: PatternSet,
    meas: MeasurementSet,
    width: int,
    height: int,
    stop: Optional[StopCriteria] = None,
) -> SolverReport:
    """Steepest descent with the exact line-search step, x0 = 0.

    Per iteration 1 A + 1 A^T: A^T for the gradient and A p for the
    step.  Ax is carried forward as Ax -= step * Ap, never recomputed;
    the next gradient, the step and the residual all read it.
    """
    with _Run(patterns, meas, width, height, stop) as run:
        A, b = patterns.rows, meas.values
        x = np.zeros(patterns.n)
        Ax = np.zeros(patterns.m)  # A @ 0, exactly, for finite A
        while True:
            p = _gd_grad(A, Ax, b)
            Ap = A @ p
            step = gd_optimal_step(Ap, b - Ax)
            if step is not None:
                x -= step * p
                Ax -= step * Ap
            if run.record(b - Ax):
                return run.report(x)


def _cg(normal, x, r):
    """Conjugate gradient (Hestenes & Stiefel 1952) on an SPD system G x = rhs,
    from x with residual r = rhs - G x; normal(v) applies G.

    The one CG recurrence of cgd_solve and _alm_solve.  Yields (x, r.r,
    alpha) before each step, where alpha is the step just taken (None
    before the first); the caller stops by leaving the loop.  Each step
    calls normal once.  Raises NumericalFailureError when p^T G p <= 1e-300.
    """
    rr, p, alpha, step = float(r @ r), r, None, 0
    while True:
        yield x, rr, alpha
        step += 1
        q = normal(p)
        denom = float(p @ q)
        if denom <= 1e-300:
            raise NumericalFailureError(
                f"p^T G p = {denom:.3g} at CG step {step}: G is not positive definite"
            )
        alpha = rr / denom
        x = x + alpha * p
        r = r - alpha * q
        rr, rr_old = float(r @ r), rr
        p = r + (rr / rr_old) * p


def cgd_solve(
    patterns: PatternSet,
    meas: MeasurementSet,
    width: int,
    height: int,
    stop: Optional[StopCriteria] = None,
) -> SolverReport:
    """Conjugate gradient on the normal equations A^T A x = A^T b, x0 = 0.

    The n x n system is never materialized; each step applies A then A^T
    (1 A + 1 A^T per iteration, plus A^T b once).  The measurement
    residual b - Ax, which only feeds the trace and the stop test, is
    tracked as b - Ax -= alpha * Ap.  First search direction is steepest
    descent.  Terminates early ("exact") when the normal-equation residual
    drops below CGD_EXACT_RTOL * max(1, ||A^T b||), bypassing the minimum
    iteration count.  The CG loop is _cg, shared with _alm_solve.
    """
    with _Run(patterns, meas, width, height, stop) as run:
        A, b = patterns.rows, meas.values
        bp = A.T @ b
        bp_norm = float(np.linalg.norm(bp))
        if not np.isfinite(bp_norm):  # an infinite exact_tol would pass before any step
            raise NumericalFailureError("norm of A^T b overflowed", iteration=0)
        exact_tol = CGD_EXACT_RTOL * max(1.0, bp_norm)

        Ap = None

        def normal(p):
            nonlocal Ap
            Ap = A @ p
            return A.T @ Ap

        res = b.copy()  # measurement residual b - Ax
        for x, rr, alpha in _cg(normal, np.zeros(patterns.n), bp):
            if alpha is not None:
                res -= alpha * Ap
                if run.record(res):
                    return run.report(x)
            if np.sqrt(rr) <= exact_tol:
                return run.report(x, residual=res)


# ------------------------------------------------------ Poisson max. likelihood


def _neg_log_likelihood(ax: np.ndarray, b: np.ndarray) -> float:
    """sum(ax - b log ax), where b_i = 0 entries contribute only ax_i, on the
    likelihood's domain: a_i.x > 0 where b_i > 0, a_i.x >= 0 where b_i = 0.
    Outside it, inf."""
    z = np.where(b > 0, ax, 1.0)  # log(1) = 0 where b_i = 0
    if ax.min() < 0 or z.min() <= 0:
        return np.inf
    return float(np.sum(ax - b * np.log(z)))


def _objective(ax: np.ndarray, b: np.ndarray) -> float:
    """_neg_log_likelihood(ax, b), raising DomainError that names the first
    row outside the domain when that is why it is inf."""
    value = _neg_log_likelihood(ax, b)
    if value == np.inf and (outside := (ax < 0) | ((b > 0) & (ax <= 0))).any():
        i = int(outside.argmax())
        raise DomainError(f"a_i.x = {ax[i]:g} at row {i} is outside the Poisson "
                          "likelihood's domain (a_i.x > 0 where b_i > 0, else >= 0)")
    return value


def poisson_objective(patterns: PatternSet, x: np.ndarray, meas: MeasurementSet) -> float:
    """Negative Poisson log-likelihood: sum(a_i.x - b_i log(a_i.x)).

    Requires a_i.x > 0 where b_i > 0 and a_i.x >= 0 where b_i = 0, whose
    entries contribute only the linear term; DomainError otherwise.
    """
    b = meas.values
    if np.any(b < 0):
        raise InvalidArgumentError("Poisson measurements must be >= 0")
    return _objective(patterns.rows @ x, b)


def _clamp_signed(v: np.ndarray) -> np.ndarray:
    """Clamp magnitudes below EPS_DIV to EPS_DIV, keeping sign (0 treated as +)."""
    sign = np.where(v < 0, -1.0, 1.0)
    return sign * np.maximum(np.abs(v), EPS_DIV)


def _poisson_grad(A: np.ndarray, Ax: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^T ((Ax - b) / Ax) from a given Ax, with the denominator clamped away
    from 0: the arithmetic of poisson_gradient and poisson_solve."""
    return A.T @ ((Ax - b) / _clamp_signed(Ax))


def poisson_gradient(patterns: PatternSet, x: np.ndarray, meas: MeasurementSet) -> np.ndarray:
    """Gradient of the negative log-likelihood: A^T ((Ax - b) / Ax)."""
    A = patterns.rows
    return _poisson_grad(A, A @ x, meas.values)


def _armijo(trial: Callable[[float], float], f0: float, pp: float) -> tuple[float, int, float]:
    """First step in {1, beta, beta^2, ...} with trial(step) <= f0 - alpha*step*pp,
    the number of trials it took and trial(step)."""
    step = 1.0
    for trials in range(1, MAX_SHRINKS + 2):
        value = trial(step)
        if value <= f0 - ARMIJO_ALPHA * step * pp:
            return step, trials, value
        step *= ARMIJO_BETA
    raise LineSearchFailureError(
        f"no acceptable step after {MAX_SHRINKS} shrinks: "
        "non-descent direction or broken objective"
    )


def backtracking_search(
    objective: Callable[[np.ndarray], float],
    x: np.ndarray,
    p: np.ndarray,
) -> float:
    """First step in {1, beta, beta^2, ...} passing the Armijo test.

    Accepts the first step with L(x + step*p) <= L(x) - alpha*step*p.p;
    p must be a descent direction (pass the negated gradient).
    """
    f0 = objective(x)
    return _armijo(lambda step: objective(x + step * p), f0, float(p @ p))[0]


def poisson_solve(
    patterns: PatternSet,
    meas: MeasurementSet,
    width: int,
    height: int,
    stop: Optional[StopCriteria] = None,
) -> SolverReport:
    """Poisson maximum-likelihood descent with backtracking step size.

    Negative measurements (possible after Gaussian noise) are clamped to
    0 and counted in the report.  x0 is a small positive constant, checked
    with poisson_objective's rule: a row outside the likelihood's domain at
    x0 (a_i.x > 0 where b_i > 0, a_i.x >= 0 where b_i = 0), such as an
    all-zero row with b_i > 0, is refused up front with its DomainError.

    Per iteration 1 A + 1 A^T, plus A x0 once: A^T for the gradient and
    A p for the search direction p.  Each Armijo trial evaluates the
    likelihood, inf outside the domain, at Ax + step * Ap in O(m).  The
    accepted trial's Ax + step * Ap becomes the next Ax, in the domain,
    and its likelihood the next objective: one evaluation per trial.
    """
    with _Run(patterns, meas, width, height, stop) as run:
        A = patterns.rows

        clamped = int(np.count_nonzero(meas.values < 0))
        b = np.maximum(meas.values, 0.0)
        x = np.full(patterns.n, 1e-6)
        Ax = A @ x
        obj = _objective(Ax, b)
        trials = 0
        while True:
            direction = -_poisson_grad(A, Ax, b)
            Ap = A @ direction
            pp = float(direction @ direction)
            if not np.isfinite(pp):  # no step could pass the Armijo test
                raise NumericalFailureError("the gradient's squared norm overflowed",
                                            iteration=run.k + 1)
            step, tried, obj = _armijo(lambda t: _neg_log_likelihood(Ax + t * Ap, b), obj, pp)
            trials += tried
            x = x + step * direction
            Ax = Ax + step * Ap
            if run.record(b - Ax, obj):
                return run.report(x, warnings=clamped, linesearch_trials=trials)


# -------------------------------------------------------- alternating projection


def ap_update(a: np.ndarray, b_i: float, amax2: float, x: np.ndarray,
              buf: np.ndarray) -> None:
    """ap_solve's in-place correction of x by one row a with max(a) > 0.

    x -= [a (.) (a (.) x)] / amax2 * (a.x - b_i)/(a.x), with amax2 =
    max(a)^2 and a.x clamped sign-preservingly; buf is x-sized scratch.
    amax2 joins a float64 scalar, so if it underflows to 0 the step is
    inf, not ZeroDivisionError.  ap_solve skips and counts all-zero rows.
    """
    ax = a.dot(x)
    denom = ax if abs(ax) >= EPS_DIV else (EPS_DIV if ax >= 0 else -EPS_DIV)
    np.multiply(a, a, out=buf)
    buf *= x
    buf *= np.float64(ax - b_i) / denom / amax2
    x -= buf


def ap_solve(
    patterns: PatternSet,
    meas: MeasurementSet,
    width: int,
    height: int,
    stop: Optional[StopCriteria] = None,
) -> SolverReport:
    """Sweeps every measurement in ascending order, once per outer iteration.

    Each row with max(a) > 0 is one ap_update call, with every row's
    max(a)^2 computed once, so a sweep allocates nothing per row.  Per
    iteration m row dot products and m row corrections of four ufunc
    passes each, plus 1 A for the residual.
    """
    with _Run(patterns, meas, width, height, stop) as run:
        A, b, n = patterns.rows, meas.values, patterns.n
        amax = A.max(axis=1, initial=0.0)
        rows = [(a, float(b_i), float(am**2))  # a float64 square: inf, not OverflowError
                for a, b_i, am in zip(A, b, amax) if am > 0.0]
        zero_rows = patterns.m - len(rows)  # entries are >= 0: max 0 iff all 0
        x = np.full(n, 1e-6)
        buf = np.empty(n)
        while True:
            for a, b_i, amax2 in rows:
                ap_update(a, b_i, amax2, x, buf)
            if run.record(b - A @ x):
                return run.report(x, warnings=zero_rows * run.k)


# --------------------------------------------------------- augmented Lagrangian


def _alm_solve(
    patterns: PatternSet,
    meas: MeasurementSet,
    prior: LinearOperator,
    width: int,
    height: int,
    stop: Optional[StopCriteria] = None,
) -> SolverReport:
    """l1-minimization of the prior coefficients subject to Px = c, Ax = b.

    Alternates: soft-threshold update of c, a solve of the SPD system
    (mu P^T P + mu A^T A) x = mu P^T(c - y1/mu) + mu A^T(b - y2/mu) by the
    shared CG (_cg) to rtol 1e-8 in at most 500 steps, multiplier ascent
    for y1/y2, then growth of the penalty weight mu (from 1, by ALM_RHO,
    capped at ALM_MU_MAX).  The CG starts from the previous x, with its
    residual built from the Px and Ax already computed there.  Use the
    DCT prior for sparse representation, the gradient prior for total
    variation.
    """
    with _Run(patterns, meas, width, height, stop) as run:
        A, b = patterns.rows, meas.values

        def system(Pv, Av):  # mu (P^T P + A^T A) v, from P v and A v
            return mu * prior.apply_transpose(Pv) + mu * (A.T @ Av)

        x = np.zeros(patterns.n)
        Px, Ax = prior.apply(x), A @ x
        y1 = np.zeros_like(Px)
        y2 = np.zeros(patterns.m)
        mu = 1.0
        cg_steps = 0
        while True:
            c = soft_threshold(Px + y1 / mu, 1.0 / mu)
            rhs = mu * prior.apply_transpose(c - y1 / mu) + mu * (A.T @ (b - y2 / mu))
            tol = max((1e-8 * float(np.linalg.norm(rhs))) ** 2, 1e-300)
            cg = _cg(lambda v: system(prior.apply(v), A @ v), x, rhs - system(Px, Ax))
            for steps, (x, rr, _) in enumerate(cg):
                if rr <= tol:
                    break
                if steps == 500:
                    raise NumericalFailureError(
                        "inner CG did not converge within 500 iterations", iteration=run.k + 1
                    )
            cg_steps += steps
            Px, Ax = prior.apply(x), A @ x
            y1 = y1 + mu * (Px - c)
            y2 = y2 + mu * (Ax - b)
            mu = min(ALM_RHO * mu, ALM_MU_MAX)
            if run.record(Ax - b, float(np.abs(Px).sum())):
                return run.report(x, inner_cg_steps=cg_steps)


# ---------------------------------------------------------------------- registry


def _cs_dct(patterns, meas, width, height, stop=None):
    return _alm_solve(patterns, meas, dct_operator(width, height), width, height, stop=stop)


def _cs_tv(patterns, meas, width, height, stop=None):
    return _alm_solve(patterns, meas, gradient_operator(width, height), width, height, stop=stop)


_REGISTRY = {
    "pinv": pinv_solve,
    "corr": corr_reconstruct,
    "dgi": dgi_reconstruct,
    "gd": gd_solve,
    "cgd": cgd_solve,
    "poisson": poisson_solve,
    "ap": ap_solve,
    "cs-dct": _cs_dct,
    "cs-tv": _cs_tv,
}


def solver_registry():
    """Stable (name, solver) pairs; every solver has the same call shape:
    solver(patterns, meas, width, height, stop=None) -> SolverReport."""
    return list(_REGISTRY.items())


def get_solver(name: str):
    if name not in _REGISTRY:
        valid = ", ".join(_REGISTRY)
        raise UnknownSolverError(f"unknown solver {name!r}; valid names: {valid}")
    return _REGISTRY[name]
