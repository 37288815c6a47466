import dataclasses
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spi_recon import solvers
from spi_recon.errors import (
    DomainError,
    InvalidArgumentError,
    LineSearchFailureError,
    NumericalFailureError,
    SingularSystemError,
    UnknownSolverError,
)
from spi_recon.model import (
    Image,
    MeasurementSet,
    NoiseModel,
    PatternSet,
    add_noise,
    generate_patterns,
    synthesize,
)
from spi_recon.metrics import normalized_rmse
from spi_recon.scenes import builtin_scene
from spi_recon.solvers import (
    StopCriteria,
    ap_solve,
    ap_update,
    backtracking_search,
    cgd_solve,
    corr_reconstruct,
    dgi_reconstruct,
    gd_gradient,
    gd_optimal_step,
    gd_solve,
    get_solver,
    pinv_solve,
    poisson_gradient,
    poisson_objective,
    poisson_solve,
    solver_registry,
)
from spi_recon.transforms import LinearOperator

NO_STOP = StopCriteria(residual_change_threshold=0.0, min_iterations=0)
EXACT = StopCriteria(residual_change_threshold=0.0)  # iterate until exact or 3n


def three_pattern_instance():
    ps = PatternSet(np.array([[1.0, 0], [0, 1], [1, 1]]))
    meas = MeasurementSet(values=np.array([2.0, 5.0, 7.0]))
    return ps, meas


def well_conditioned_square(n, seed, boost=5.0):
    """Nonnegative m = n patterns whose normal equations are well conditioned."""
    rng = np.random.default_rng(seed)
    return PatternSet(rng.random((n, n)) + boost * np.eye(n))


# -------------------------------------------------------------- non-iterative


@pytest.mark.parametrize("name, min_ratio", [("corr", 0), ("cgd", 0), ("pinv", 1.5)])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_corr_cgd_and_pinv_are_linear_in_b(name, min_ratio, data):
    """x(alpha b1 + beta b2) = alpha x(b1) + beta x(b2) up to round-off, on
    up to 8 x 8 pixels and m up to 2n; cgd runs to its exact stop, and pinv
    gets m >= 1.5 n so that its system is well posed."""
    w, h = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    m = data.draw(st.integers(max(1, int(np.ceil(min_ratio * w * h))), 2 * w * h))
    ps = generate_patterns(m, w, h, seed=data.draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    b1, b2 = rng.standard_normal((2, m))
    alpha, beta = data.draw(st.floats(-3, 3)), data.draw(st.floats(-3, 3))
    solve = get_solver(name)
    x1, x2, x = (solve(ps, MeasurementSet(values=b), w, h, stop=EXACT).image.data
                 for b in (b1, b2, alpha * b1 + beta * b2))
    scale = abs(alpha) * np.linalg.norm(x1) + abs(beta) * np.linalg.norm(x2)
    np.testing.assert_allclose(x, alpha * x1 + beta * x2, rtol=0, atol=1e-9 * scale + 1e-15)


@pytest.mark.parametrize("name, min_ratio, budget", [
    ("corr", 0, None), ("dgi", 0, None), ("pinv", 1.5, None),
    ("gd", 0, 40), ("cgd", 0, 3), ("cgd", 0, "exact"),
])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_permuting_patterns_and_readings_together_keeps_the_image(name, min_ratio, budget,
                                                                  data):
    """Rows of A and entries of b permuted alike give the same image within
    1e-9 of its norm, on up to 8 x 8 pixels and m up to 2n: a permuted sum
    over rows rounds differently, and no more.  gd runs a fixed budget of
    1 to 40 iterations.  cgd runs 1 to 3, or to its exact stop: past its
    first steps, a permuted run at a fixed budget drifted by as much as 2%
    of the image's norm, while at the exact stop both reach one solution.  pinv
    gets m >= 1.5 n so that its system is well posed.  ap is left out (its
    row order is its algorithm), and so are cs-dct and cs-tv, whose ALM
    amplifies rounding."""
    w, h = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    m = data.draw(st.integers(max(1, int(np.ceil(min_ratio * w * h))), 2 * w * h))
    ps = generate_patterns(m, w, h, seed=data.draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    b = ps.rows @ rng.random(w * h) + 0.01 * rng.standard_normal(m)
    perm = rng.permutation(m)
    if budget == "exact":
        stop = EXACT
    else:
        k = data.draw(st.integers(1, budget or 1))
        stop = StopCriteria(residual_change_threshold=0.0, min_iterations=k,
                            max_iterations_factor=0.0)
    solve = get_solver(name)
    x = solve(ps, MeasurementSet(values=b), w, h, stop=stop).image.data
    xp = solve(PatternSet(ps.rows[perm]), MeasurementSet(values=b[perm]), w, h,
               stop=stop).image.data
    np.testing.assert_allclose(xp, x, rtol=0, atol=1e-9 * np.linalg.norm(x) + 1e-15)


def test_pinv_identity_system():
    ps = PatternSet(np.eye(4))
    meas = MeasurementSet(values=np.array([1.0, 2.0, 3.0, 4.0]))
    rep = pinv_solve(ps, meas, 2, 2)
    assert np.allclose(rep.image.data, [1, 2, 3, 4], atol=1e-12)
    assert rep.terminated_by == "exact" and rep.iterations == 0


def test_pinv_overdetermined_matches_qr_oracle():
    rng = np.random.default_rng(0)
    n = 16
    A = rng.random((2 * n, n))
    x_true = rng.random(n)
    ps = PatternSet(A)
    meas = MeasurementSet(values=A @ x_true)
    rep = pinv_solve(ps, meas, 4, 4)
    # independent oracle: QR least squares
    q, r = np.linalg.qr(A)
    x_qr = np.linalg.solve(r, q.T @ meas.values)
    assert np.max(np.abs(rep.image.data - x_qr)) < 1e-10
    assert np.sqrt(np.mean((rep.image.data - x_true) ** 2)) < 1e-8


def test_pinv_underdetermined_rejected():
    ps = generate_patterns(8, 4, 4, seed=0)
    meas = MeasurementSet(values=np.zeros(8))
    with pytest.raises(SingularSystemError):
        pinv_solve(ps, meas, 4, 4)


def test_pinv_rank_deficient_overdetermined_rejected():
    """m >= n, but two equal columns leave A^T A singular."""
    A = generate_patterns(32, 4, 4, seed=0).rows.copy()
    A[:, 5] = A[:, 4]
    with pytest.raises(SingularSystemError, match="condition estimate"):
        pinv_solve(PatternSet(A), MeasurementSet(values=A @ np.ones(16)), 4, 4)


def test_corr_hand_instance():
    ps, meas = three_pattern_instance()
    rep = corr_reconstruct(ps, meas, 2, 1)
    assert np.allclose(rep.image.data, [-1 / 9, 8 / 9], atol=1e-12)


def test_corr_constant_measurements_zero():
    ps = generate_patterns(20, 3, 3, seed=1)
    meas = MeasurementSet(values=np.full(20, 4.2))
    rep = corr_reconstruct(ps, meas, 3, 3)
    assert np.max(np.abs(rep.image.data)) < 1e-12


def test_corr_single_sample_zero():
    ps = generate_patterns(1, 2, 2, seed=2)
    meas = MeasurementSet(values=np.array([3.0]))
    rep = corr_reconstruct(ps, meas, 2, 2)
    assert np.max(np.abs(rep.image.data)) < 1e-12


def test_dgi_hand_instance():
    ps, meas = three_pattern_instance()
    rep = dgi_reconstruct(ps, meas, 2, 1)
    assert np.allclose(rep.image.data, [-0.5, 0.5], atol=1e-12)


def test_dgi_reduces_to_corr_with_equal_intensities():
    # rows of a permutation matrix all sum to 1
    rng = np.random.default_rng(3)
    for _ in range(10):
        perm = rng.permutation(9)
        rows = np.eye(9)[perm]
        ps = PatternSet(rows)
        meas = MeasurementSet(values=rng.random(9))
        a = dgi_reconstruct(ps, meas, 3, 3).image.data
        b = corr_reconstruct(ps, meas, 3, 3).image.data
        assert np.max(np.abs(a - b)) < 1e-12


def test_dgi_zero_measurements_zero_output():
    ps = generate_patterns(10, 2, 2, seed=4)
    meas = MeasurementSet(values=np.zeros(10))
    rep = dgi_reconstruct(ps, meas, 2, 2)
    assert np.max(np.abs(rep.image.data)) < 1e-12


def test_dgi_all_zero_patterns_rejected():
    ps = PatternSet(np.zeros((3, 4)))
    meas = MeasurementSet(values=np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        dgi_reconstruct(ps, meas, 2, 2)


# ------------------------------------------------------------ gradient descent


def quad_objective(A, x, b):
    return float(np.sum((A @ x - b) ** 2))


def central_diff(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (fn(x + e) - fn(x - e)) / (2 * eps)
    return g


def test_gd_gradient_stationary_point():
    ps = PatternSet(np.eye(3))
    x = np.array([1.0, 2.0, 3.0])
    meas = MeasurementSet(values=x.copy())
    assert np.array_equal(gd_gradient(ps, x, meas), np.zeros(3))


def test_gd_gradient_forced_instance():
    ps = PatternSet(np.array([[1.0, 1], [2, 1]]))
    meas = MeasurementSet(values=np.zeros(2))
    p = gd_gradient(ps, np.array([1.0, 2.0]), meas)
    assert np.array_equal(p, [22.0, 14.0])


def test_gd_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(5):
        A = rng.random((8, 6))
        x = rng.random(6)
        b = rng.random(8)
        ps = PatternSet(A)
        meas = MeasurementSet(values=b)
        p = gd_gradient(ps, x, meas)
        g = central_diff(lambda v: quad_objective(A, v, b), x)
        assert np.max(np.abs(p - g)) / np.max(np.abs(g)) < 1e-6


def test_gd_gradient_linearity_in_b():
    ps = generate_patterns(6, 2, 2, seed=6)
    b = np.arange(1.0, 7.0)
    x = np.zeros(4)
    p1 = gd_gradient(ps, x, MeasurementSet(values=b))
    p2 = gd_gradient(ps, x, MeasurementSet(values=2 * b))
    assert np.allclose(p2, 2 * p1, rtol=1e-12)


def test_gd_optimal_step_zero_direction():
    ps = PatternSet(np.eye(2))
    assert gd_optimal_step(ps.rows @ np.zeros(2), np.ones(2)) is None


def test_gd_optimal_step_scalar_instance():
    ps = PatternSet(np.array([[2.0]]))
    x = np.zeros(1)
    b = np.array([6.0])
    meas = MeasurementSet(values=b)
    p = gd_gradient(ps, x, meas)
    r = b - ps.rows @ x
    step = gd_optimal_step(ps.rows @ p, r)
    assert step == pytest.approx(0.125, abs=0)
    assert (x - step * p)[0] == pytest.approx(3.0, abs=1e-15)


def test_gd_optimal_step_grid_minimality():
    rng = np.random.default_rng(7)
    A = rng.random((6, 4))
    x = rng.random(4)
    b = rng.random(6)
    ps = PatternSet(A)
    meas = MeasurementSet(values=b)
    p = gd_gradient(ps, x, meas)
    r = b - A @ x
    step = gd_optimal_step(ps.rows @ p, r)
    best = quad_objective(A, x - step * p, b)
    for factor in np.linspace(0.5, 1.5, 21):
        assert best <= quad_objective(A, x - step * factor * p, b) + 1e-12


def test_gd_solve_zero_measurements():
    ps = generate_patterns(8, 2, 2, seed=8)
    meas = MeasurementSet(values=np.zeros(8))
    rep = gd_solve(ps, meas, 2, 2)
    assert np.array_equal(rep.image.data, np.zeros(4))
    assert rep.iterations == StopCriteria().min_iterations


def test_gd_solve_matches_direct_solve():
    # well-conditioned full-rank square system: gd reaches the exact solution
    ps = well_conditioned_square(16, seed=9)
    rng = np.random.default_rng(10)
    x_true = rng.random(16)
    meas = MeasurementSet(values=ps.rows @ x_true)
    rep = gd_solve(ps, meas, 4, 4, stop=NO_STOP)
    x_direct = np.linalg.solve(ps.rows, meas.values)
    assert np.sqrt(np.mean((rep.image.data - x_direct) ** 2)) < 1e-3


def test_gd_solve_objective_monotone():
    ps = generate_patterns(30, 4, 4, seed=11)
    meas = MeasurementSet(values=np.random.default_rng(12).random(30))
    rep = gd_solve(ps, meas, 4, 4)
    objs = [obj for _, _, obj in rep.trace]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


# --------------------------------------------------------- conjugate gradient


def test_cgd_scalar_one_iteration():
    ps = PatternSet(np.array([[2.0]]))
    meas = MeasurementSet(values=np.array([6.0]))
    rep = cgd_solve(ps, meas, 1, 1)
    assert rep.image.data[0] == pytest.approx(3.0, abs=1e-12)
    assert rep.iterations == 1 and rep.terminated_by == "exact"


def test_cgd_finite_termination_3x3():
    rng = np.random.default_rng(13)
    A = rng.random((3, 3)) + np.eye(3)
    ps = PatternSet(A)
    x_true = rng.random(3)
    meas = MeasurementSet(values=A @ x_true)
    rep = cgd_solve(ps, meas, 3, 1, stop=NO_STOP)
    assert rep.iterations <= 3 + 1
    assert np.max(np.abs(rep.image.data - np.linalg.solve(A, meas.values))) < 1e-8


def test_cgd_zero_rhs_immediate_exact():
    ps = generate_patterns(8, 2, 2, seed=14)
    meas = MeasurementSet(values=np.zeros(8))
    rep = cgd_solve(ps, meas, 2, 2)
    assert rep.iterations == 0 and rep.terminated_by == "exact"
    assert np.array_equal(rep.image.data, np.zeros(4))


def test_cgd_matches_direct_solve_16x16_scene():
    ps = generate_patterns(512, 16, 16, seed=15)
    truth = builtin_scene("disk", 16, 16)
    meas = synthesize(ps, truth)
    rep = cgd_solve(ps, meas, 16, 16, stop=NO_STOP)
    assert normalized_rmse(truth, rep.image) < 1e-6


# ------------------------------------------------------- Poisson max likelihood


def test_poisson_objective_zero_at_exact_fit():
    ps = PatternSet(np.eye(2) * np.e)
    x = np.ones(2)
    meas = MeasurementSet(values=ps.rows @ x)  # Ax = (e, e)
    assert poisson_objective(ps, x, meas) == pytest.approx(0.0, abs=1e-12)


def test_poisson_objective_forced_instance():
    ps = PatternSet(np.array([[1.0, 1], [2, 1]]))
    meas = MeasurementSet(values=np.array([6.0, 4.0]))
    val = poisson_objective(ps, np.array([1.0, 2.0]), meas)
    expected = (3 - 6 * np.log(3)) + (4 - 4 * np.log(4))
    assert val == pytest.approx(expected, rel=1e-12)


def test_poisson_objective_zero_measurements():
    ps = PatternSet(np.array([[1.0, 2], [3, 1]]))
    x = np.array([0.5, 0.25])
    meas = MeasurementSet(values=np.zeros(2))
    assert poisson_objective(ps, x, meas) == pytest.approx((ps.rows @ x).sum())


def test_poisson_objective_domain_error():
    ps = PatternSet(np.array([[1.0, 1]]))
    meas = MeasurementSet(values=np.array([1.0]))
    with pytest.raises(DomainError):
        poisson_objective(ps, np.array([-1.0, 0.0]), meas)


def test_poisson_objective_refuses_a_negative_reading():
    ps = PatternSet(np.array([[1.0, 1], [2, 1]]))
    meas = MeasurementSet(values=np.array([6.0, -1e-3]))
    with pytest.raises(InvalidArgumentError, match="Poisson measurements must be >= 0"):
        poisson_objective(ps, np.array([1.0, 2.0]), meas)


def test_poisson_gradient_zero_at_fit():
    ps = PatternSet(np.array([[1.0, 2], [2, 1]]))
    x = np.array([1.0, 1.0])
    meas = MeasurementSet(values=ps.rows @ x)
    assert np.max(np.abs(poisson_gradient(ps, x, meas))) < 1e-12


def test_poisson_gradient_forced_instance():
    ps = PatternSet(np.array([[1.0, 1], [2, 1]]))
    meas = MeasurementSet(values=np.array([6.0, 4.0]))
    p = poisson_gradient(ps, np.array([1.0, 2.0]), meas)
    assert np.allclose(p, [-1.0, -1.0], atol=1e-12)


def test_poisson_gradient_matches_finite_differences():
    rng = np.random.default_rng(16)
    for _ in range(5):
        A = rng.random((8, 6)) + 0.1
        x = rng.random(6) + 0.5
        b = rng.random(8) * 3
        ps = PatternSet(A)
        meas = MeasurementSet(values=b)
        p = poisson_gradient(ps, x, meas)
        g = central_diff(lambda v: poisson_objective(ps, v, meas), x)
        assert np.max(np.abs(p - g)) / np.max(np.abs(g)) < 1e-6


def test_poisson_gradient_scale_invariance():
    ps = PatternSet(np.random.default_rng(17).random((5, 4)) + 0.1)
    x = np.random.default_rng(18).random(4) + 0.5
    b = np.random.default_rng(19).random(5)
    c = 3.7
    p1 = poisson_gradient(ps, x, MeasurementSet(values=b))
    p2 = poisson_gradient(ps, c * x, MeasurementSet(values=c * b))
    assert np.allclose(p1, p2, rtol=1e-12)


def test_backtracking_hand_instance():
    step = backtracking_search(
        lambda v: float(v[0] ** 2),
        np.array([1.0]),
        np.array([-2.0]),
    )
    assert step == 0.5


def test_backtracking_zero_direction():
    step = backtracking_search(lambda v: float(v @ v), np.ones(3), np.zeros(3))
    assert step == 1.0


def test_backtracking_step_in_unit_interval():
    rng = np.random.default_rng(20)
    for _ in range(10):
        x = rng.standard_normal(4)
        grad = 2 * x
        step = backtracking_search(lambda v: float(v @ v), x, -grad)
        assert 0.0 < step <= 1.0


def test_backtracking_failure_reports_its_shrink_budget():
    calls = []

    def objective(v):
        calls.append(v)
        return float(v @ v)

    # a NaN objective: no step passes the Armijo test
    with pytest.raises(LineSearchFailureError, match="after 200 shrinks"):
        backtracking_search(lambda v: objective(v) * np.nan, np.ones(2), -np.ones(2))
    assert len(calls) == 1 + 201


def test_poisson_solve_identity_system():
    ps = PatternSet(np.eye(4))
    meas = MeasurementSet(values=np.array([1.0, 2.0, 3.0, 4.0]))
    budget = StopCriteria(residual_change_threshold=0.0, min_iterations=0,
                          max_iterations_factor=100.0)
    rep = poisson_solve(ps, meas, 2, 2, stop=budget)
    assert np.max(np.abs(rep.image.data - meas.values)) < 1e-3


def test_poisson_solve_close_to_long_run_oracle():
    ps = well_conditioned_square(64, seed=21, boost=20.0)
    rng = np.random.default_rng(22)
    x_true = rng.random(64) + 0.1
    meas = MeasurementSet(values=ps.rows @ x_true)
    short = poisson_solve(ps, meas, 8, 8, stop=NO_STOP)
    long_stop = StopCriteria(residual_change_threshold=0.0, min_iterations=0,
                             max_iterations_factor=30.0)
    long = poisson_solve(ps, meas, 8, 8, stop=long_stop)
    assert short.trace[-1][2] - long.trace[-1][2] < 1e-4


def test_poisson_solve_clamps_negative_measurements():
    ps = generate_patterns(10, 2, 2, seed=23)
    values = np.linspace(-1.0, 2.0, 10)
    meas = MeasurementSet(values=values)
    rep = poisson_solve(ps, meas, 2, 2)
    assert rep.warning_count == int(np.count_nonzero(values < 0))


def zero_row_problem(reading):
    """A consistent 32 x 16 problem whose row 3 of A is all zero, with b_3
    replaced by the given reading."""
    rows = generate_patterns(32, 4, 4, seed=5).rows.copy()
    rows[3] = 0.0
    ps = PatternSet(rows)
    b = ps.rows @ (np.random.default_rng(6).random(16) + 0.1)
    b[3] = reading
    return ps, MeasurementSet(values=b)


def test_poisson_solve_takes_an_all_zero_row_read_as_zero():
    """a_3.x = 0 for every x, and b_3 = 0 keeps it in the domain, where
    the row adds nothing to the likelihood; no log of 0 is taken."""
    ps, meas = zero_row_problem(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = poisson_solve(ps, meas, 4, 4)
    assert rep.iterations >= 30 and np.isfinite(rep.image.data).all()
    assert all(np.isfinite(obj) for _, _, obj in rep.trace)


@pytest.mark.parametrize("reading", [1.0, -1.0])
def test_poisson_solve_refuses_an_all_zero_row_only_with_a_positive_reading(reading):
    """With b_3 > 0 no x has a_3.x > 0, so the solve is refused before any
    iteration, naming the row; a negative reading clamps to 0 and solves."""
    ps, meas = zero_row_problem(reading)
    if reading > 0:
        with pytest.raises(DomainError, match=r"a_i\.x = 0 at row 3 is outside the Poisson"):
            poisson_solve(ps, meas, 4, 4)
    else:
        assert poisson_solve(ps, meas, 4, 4).warning_count == 1


def test_poisson_solve_refuses_a_row_whose_start_product_underflows():
    """Row 3 is not all zero, but its subnormal entries give a_3.x0 = 0 with
    b_3 > 0: the start point is outside the domain, so the solve is refused
    by the objective's rule, and never run from an infinite objective."""
    ps, meas = zero_row_problem(1.0)
    rows = ps.rows.copy()
    rows[3] = 1e-320
    with pytest.raises(DomainError, match=r"a_i\.x = 0 at row 3 is outside the Poisson"):
        poisson_solve(PatternSet(rows), meas, 4, 4)


def test_poisson_objective_domain_is_a_i_x_positive_where_b_i_is():
    """a_i.x = 0 is in the domain where b_i = 0, with no warning, and out
    of it where b_i > 0, naming the row."""
    ps = PatternSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    x = np.array([2.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = poisson_objective(ps, x, MeasurementSet(values=np.array([3.0, 0.0])))
    assert value == pytest.approx(2.0 - 3.0 * np.log(2.0), rel=1e-15)
    with pytest.raises(DomainError, match="row 1"):
        poisson_objective(ps, x, MeasurementSet(values=np.array([3.0, 1.0])))


def test_poisson_solve_evaluates_the_likelihood_once_per_trial(monkeypatch):
    """One likelihood at x0 and one per Armijo trial: the accepted trial's
    value is the next objective, never evaluated again at the same point.
    Counting leaves the image and the trace unchanged."""
    ps = generate_patterns(24, 4, 4, seed=41)
    meas = synthesize(ps, builtin_scene("blocks", 4, 4))
    budget = StopCriteria(residual_change_threshold=0.0, min_iterations=7,
                          max_iterations_factor=0.0)
    plain = poisson_solve(ps, meas, 4, 4, stop=budget)
    likelihood, calls = solvers._neg_log_likelihood, []

    def counted(ax, b):
        calls.append(1)
        return likelihood(ax, b)

    monkeypatch.setattr(solvers, "_neg_log_likelihood", counted)
    rep = poisson_solve(ps, meas, 4, 4, stop=budget)
    assert np.array_equal(rep.image.data, plain.image.data) and rep.trace == plain.trace
    assert rep.iterations == 7 and rep.linesearch_trials > rep.iterations
    assert len(calls) == 1 + rep.linesearch_trials


def test_the_likelihood_is_inf_outside_its_domain():
    """Outside the domain the private likelihood raises nothing; only the
    objective's rule, behind poisson_objective and poisson_solve's start
    point, turns its inf into a DomainError."""
    b = np.array([3.0, 1.0])
    assert solvers._neg_log_likelihood(np.array([2.0, 0.0]), b) == np.inf
    assert solvers._neg_log_likelihood(np.array([-1.0, 1.0]), b) == np.inf
    assert solvers._neg_log_likelihood(np.array([2.0, -1.0]), np.array([3.0, 0.0])) == np.inf


def test_poisson_solve_objective_monotone():
    ps = generate_patterns(20, 3, 3, seed=24)
    truth = np.random.default_rng(25).random(9) + 0.1
    meas = MeasurementSet(values=ps.rows @ truth)
    rep = poisson_solve(ps, meas, 3, 3)
    objs = [obj for _, _, obj in rep.trace]
    assert all(b <= a + 1e-10 for a, b in zip(objs, objs[1:]))


# -------------------------------------------------------- alternating projection


def ap_update_copy(a, b_i, x):
    """ap_update applied to a copy of x, with amax2 = max(a)^2 as ap_solve
    computes it; a must have max(a) > 0."""
    a = np.asarray(a, dtype=np.float64)
    x = np.array(x, dtype=np.float64)
    ap_update(a, b_i, float(a.max() ** 2), x, np.empty_like(x))
    return x


def test_ap_update_hand_instance():
    x = ap_update_copy(np.array([1.0, 1.0]), 4.0, np.array([1.0, 1.0]))
    assert np.array_equal(x, [2.0, 2.0])


def test_ap_update_consistent_measurement_fixed_point():
    a = np.array([0.5, 1.5, 1.0])
    x = np.array([1.0, 2.0, 3.0])
    x2 = ap_update_copy(a, float(a @ x), x)
    assert np.array_equal(x2, x)


def test_ap_update_zero_start_is_finite():
    a = np.array([1.0, 1.0])
    x2 = ap_update_copy(a, 1.0, np.zeros(2))
    assert np.all(np.isfinite(x2))


def test_ap_update_reduces_measurement_error():
    rng = np.random.default_rng(26)
    for _ in range(10):
        a = rng.random(9)
        x = rng.random(9)
        b_i = rng.random() * 5
        x2 = ap_update_copy(a, b_i, x)
        assert abs(a @ x2 - b_i) <= abs(a @ x - b_i) + 1e-12


def test_ap_update_binary_pattern_exact_projection():
    rng = np.random.default_rng(27)
    for _ in range(10):
        a = (rng.random(9) < 0.5).astype(float)
        if a.max() == 0:
            a[0] = 1.0
        x = rng.random(9) + 0.1
        b_i = rng.random() * 3 + 0.5
        x2 = ap_update_copy(a, b_i, x)
        assert a @ x2 == pytest.approx(b_i, rel=1e-9)


def test_ap_solve_consistent_oversampled():
    # grayscale patterns need oversampling: at m = n the multiplicative
    # update stalls at a biased fixed point, so use m = 4n here
    ps = generate_patterns(64, 4, 4, seed=28)
    truth = np.random.default_rng(29).random(16)
    meas = MeasurementSet(values=ps.rows @ truth)
    budget = StopCriteria(residual_change_threshold=0.0, min_iterations=0,
                          max_iterations_factor=30.0)
    rep = ap_solve(ps, meas, 4, 4, stop=budget)
    assert np.sqrt(np.mean((rep.image.data - truth) ** 2)) < 1e-2


def test_ap_solve_zero_measurements_stay_near_zero():
    ps = generate_patterns(8, 2, 2, seed=30)
    meas = MeasurementSet(values=np.zeros(8))
    rep = ap_solve(ps, meas, 2, 2)
    assert np.all(np.abs(rep.image.data) <= 1e-6)


def test_ap_solve_deterministic():
    ps = generate_patterns(20, 3, 3, seed=31)
    meas = MeasurementSet(values=np.random.default_rng(32).random(20))
    a = ap_solve(ps, meas, 3, 3)
    b = ap_solve(ps, meas, 3, 3)
    assert np.array_equal(a.image.data, b.image.data)
    assert a.trace == b.trace


def test_ap_warns_once_per_all_zero_pattern_per_sweep():
    """An all-zero pattern (-0.0 entries included) leaves x unchanged and
    counts one warning each sweep; the other patterns still update x."""
    rows = generate_patterns(24, 4, 4, seed=41).rows.copy()
    rows[[3, 10]] = 0.0
    rows[17] = -0.0
    ps = PatternSet(rows)
    meas = synthesize(ps, builtin_scene("blocks", 4, 4))
    rep = ap_solve(ps, meas, 4, 4, stop=StopCriteria(0.0, 7, 0.0))
    assert rep.iterations == 7 and rep.warning_count == 3 * 7
    kept = PatternSet(np.delete(rows, [3, 10, 17], axis=0))
    ref = ap_solve(kept, MeasurementSet(np.delete(meas.values, [3, 10, 17])), 4, 4,
                   stop=StopCriteria(0.0, 7, 0.0))
    assert np.array_equal(rep.image.data, ref.image.data)


def test_ap_with_entries_whose_square_overflows_is_a_numerical_failure():
    """max(a)^2 of a finite entry past 1.34e154 was a Python OverflowError."""
    ps = PatternSet(1e155 * generate_patterns(32, 4, 4, seed=0).rows)
    meas = MeasurementSet(values=np.ones(32))
    with pytest.raises(NumericalFailureError):
        ap_solve(ps, meas, 4, 4)


def test_gd_and_ap_run_their_public_kernels(monkeypatch):
    """gd_solve takes every step from solvers.gd_optimal_step and ap_solve
    makes every row update through solvers.ap_update, so counting wrappers
    on the module see one step per gd iteration and one update per nonzero
    row per ap sweep, and leave every bit of the images as they were."""
    rows = generate_patterns(24, 4, 4, seed=41).rows.copy()
    rows[[3, 10]] = 0.0
    ps = PatternSet(rows)
    meas = synthesize(ps, builtin_scene("blocks", 4, 4))
    budget = StopCriteria(residual_change_threshold=0.0, min_iterations=7,
                          max_iterations_factor=0.0)
    plain = [gd_solve(ps, meas, 4, 4, stop=budget), ap_solve(ps, meas, 4, 4, stop=budget)]
    calls = {"gd_optimal_step": 0, "ap_update": 0}

    def counting(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in calls:
        monkeypatch.setattr(solvers, name, counting(name, getattr(solvers, name)))
    gd = gd_solve(ps, meas, 4, 4, stop=budget)
    assert calls == {"gd_optimal_step": 7, "ap_update": 0} and gd.iterations == 7
    ap = ap_solve(ps, meas, 4, 4, stop=budget)
    assert calls["ap_update"] == 22 * 7 and ap.iterations == 7
    for rep, ref in zip((gd, ap), plain):
        assert rep.image.data.tobytes() == ref.image.data.tobytes()


# --------------------------------------------------------- augmented Lagrangian


def test_alm_sparse_prior_full_sampling():
    ps = generate_patterns(64, 8, 8, seed=33)
    truth = builtin_scene("bars", 8, 8)
    meas = synthesize(ps, truth)
    rep = get_solver("cs-dct")(ps, meas, 8, 8)
    assert normalized_rmse(truth, rep.image) < 1e-2


def test_alm_tv_prior_half_sampling():
    ps = generate_patterns(128, 16, 16, seed=34)
    truth = builtin_scene("blocks", 16, 16)
    meas = synthesize(ps, truth)
    rep = get_solver("cs-tv")(ps, meas, 16, 16)
    assert normalized_rmse(truth, rep.image) < 0.05


def test_alm_zero_measurements_zero_solution():
    ps = generate_patterns(32, 4, 4, seed=35)
    meas = MeasurementSet(values=np.zeros(32))
    rep = get_solver("cs-dct")(ps, meas, 4, 4)
    assert np.max(np.abs(rep.image.data)) < 1e-6


def test_alm_residual_trend():
    ps = generate_patterns(100, 8, 8, seed=36)
    truth = builtin_scene("disk", 8, 8)
    meas = synthesize(ps, truth)
    rep = get_solver("cs-tv")(ps, meas, 8, 8)
    assert rep.trace[-1][1] < rep.trace[0][1]


# -------------------------------------------------------------------- registry


def test_registry_names_stable():
    names = [name for name, _ in solver_registry()]
    assert names == ["pinv", "corr", "dgi", "gd", "cgd", "poisson", "ap",
                     "cs-dct", "cs-tv"]


def test_registry_is_a_dict_of_plain_functions():
    assert isinstance(solvers._REGISTRY, dict)
    assert list(solvers._REGISTRY.items()) == solver_registry()
    for name, fn in solver_registry():
        assert inspect.isfunction(fn), name
        assert get_solver(name) is fn
        params = list(inspect.signature(fn).parameters)
        assert params == ["patterns", "meas", "width", "height", "stop"], name


def test_registry_lookup():
    assert get_solver("dgi") is not None
    assert get_solver("cs-tv") is not None


def test_registry_unknown_name_lists_valid():
    with pytest.raises(UnknownSolverError, match="cs-tv"):
        get_solver("nosuch")


def test_registry_cs_tv_uses_gradient_prior():
    # TV entry recovers a piecewise-constant scene from half sampling,
    # which the plain least-squares route cannot do
    ps = generate_patterns(128, 16, 16, seed=37)
    truth = builtin_scene("blocks", 16, 16)
    meas = synthesize(ps, truth)
    rep = get_solver("cs-tv")(ps, meas, 16, 16)
    assert normalized_rmse(truth, rep.image) < 0.05


# ---------------------------------------------------------- shared protocol


DIRECT = ("pinv", "corr", "dgi")


def test_stop_criteria_bounds_honored():
    ps = generate_patterns(36, 3, 3, seed=38)
    meas = MeasurementSet(values=np.random.default_rng(39).random(36))
    iterative = [name for name, _ in solver_registry() if name not in DIRECT]
    assert iterative == ["gd", "cgd", "poisson", "ap", "cs-dct", "cs-tv"]
    for name in iterative:
        rep = get_solver(name)(ps, meas, 3, 3)
        if rep.terminated_by != "exact":
            assert rep.iterations >= StopCriteria().min_iterations, name
        assert rep.iterations <= StopCriteria().max_iterations(9), name


@pytest.mark.parametrize("solve", [pinv_solve, corr_reconstruct, dgi_reconstruct])
def test_direct_solvers_accept_and_ignore_stop(solve):
    ps = well_conditioned_square(9, seed=42)
    meas = MeasurementSet(values=np.random.default_rng(43).random(9))
    plain = solve(ps, meas, 3, 3)
    rep = solve(ps, meas, 3, 3, stop=NO_STOP)
    assert np.array_equal(rep.image.data, plain.image.data)
    assert rep.trace == plain.trace


@pytest.mark.parametrize("name", DIRECT)
def test_direct_solvers_report_one_exact_trace_entry(name):
    ps = well_conditioned_square(9, seed=44)
    meas = MeasurementSet(values=np.random.default_rng(45).random(9))
    rep = get_solver(name)(ps, meas, 3, 3)
    r = float(np.linalg.norm(meas.values - ps.rows @ rep.image.data))
    assert rep.iterations == 0 and rep.terminated_by == "exact"
    assert len(rep.trace) == 1
    k, rnorm, obj = rep.trace[0]
    assert k == 0 and rnorm == pytest.approx(r, rel=1e-9, abs=1e-12) and obj == rnorm**2


@pytest.mark.parametrize("name", DIRECT + ("cgd",))
def test_overflowed_residual_is_not_an_exact_solve(name):
    # finite readings whose norms overflow: ||b - Ax|| and ||A^T b|| are inf
    ps = generate_patterns(32, 4, 4, seed=0)
    meas = MeasurementSet(values=np.full(32, 1e160))
    with pytest.raises(NumericalFailureError) as info:
        get_solver(name)(ps, meas, 4, 4)
    assert info.value.iteration == 0


SMALL_BUDGET = StopCriteria(residual_change_threshold=1e-6, min_iterations=2,
                            max_iterations_factor=0.5)
LIBRARY_ERRORS = (DomainError, InvalidArgumentError, NumericalFailureError,
                  SingularSystemError)


@pytest.mark.parametrize("name", [name for name, _ in solver_registry()])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_finite_inputs_never_give_a_non_finite_exact_trace(name, data):
    """Finite patterns and readings, at any scale up to 8 x 8 pixels and m up
    to 2n, either end in a library error or give a report whose trace is
    finite when it says "exact"."""
    w, h = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 2 * w * h))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a_scale, b_scale = (10.0 ** data.draw(st.integers(-300, 300)) for _ in range(2))
    ps = PatternSet(a_scale * rng.random((m, w * h)))
    meas = MeasurementSet(values=b_scale * rng.standard_normal(m))
    try:
        rep = get_solver(name)(ps, meas, w, h, stop=SMALL_BUDGET)
    except LIBRARY_ERRORS:
        return
    if rep.terminated_by == "exact":
        assert np.isfinite([entry[1:] for entry in rep.trace]).all(), rep.trace


@pytest.mark.parametrize("bad", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)])
def test_run_record_rejects_non_finite_values(bad):
    ps = generate_patterns(4, 2, 2, seed=46)
    run = solvers._Run(ps, MeasurementSet(values=np.ones(4)), 2, 2, NO_STOP)
    assert not run.record(2.0, 4.0)
    assert not run.record(1.0, 1.0)
    with pytest.raises(NumericalFailureError, match="residual diverged") as info:
        run.record(*bad)
    assert info.value.iteration == 3


def test_run_stop_rule():
    ps = generate_patterns(4, 2, 2, seed=47)
    meas = MeasurementSet(values=np.ones(4))
    run = solvers._Run(ps, meas, 2, 2, StopCriteria(residual_change_threshold=0.5,
                                                    min_iterations=3))
    # a change below the threshold stops only once min_iterations is reached
    assert [run.record(r, r * r) for r in (3.0, 2.9, 2.8)] == [False, False, True]
    assert run.terminated_by == "residual_change"
    run = solvers._Run(ps, meas, 2, 2, StopCriteria(residual_change_threshold=0.5))
    assert run.max_iter == 30  # the 30-iteration minimum exceeds 3n = 12
    stopped = [run.record(float(k), 0.0) for k in range(1, 31)]
    assert stopped == [False] * 29 + [True] and run.terminated_by == "max_iterations"
    with pytest.raises(InvalidArgumentError, match="measurement count 3 != pattern count 4"):
        solvers._Run(ps, MeasurementSet(values=np.ones(3)), 2, 2)


def protocol_cell(level):
    """8x8 blocks read by 128 patterns, where every solver, pinv too, succeeds."""
    ps = generate_patterns(128, 8, 8, seed=48)
    return ps, add_noise(synthesize(ps, builtin_scene("blocks", 8, 8)),
                         NoiseModel(level, 64), seed=49)


@pytest.mark.parametrize("name", [name for name, _ in solver_registry()])
def test_every_solver_enters_its_run_once(name, monkeypatch):
    entered, enter = [], solvers._Run.__enter__

    def counting_enter(run):
        entered.append(run)
        return enter(run)

    monkeypatch.setattr(solvers._Run, "__enter__", counting_enter)
    get_solver(name)(*protocol_cell(0.0), 8, 8)
    assert len(entered) == 1


@pytest.mark.parametrize("level", [0.0, 1e-3])
@pytest.mark.parametrize("name", [name for name, _ in solver_registry()])
def test_the_trace_ends_at_the_image_residual(name, level):
    """The last trace residual is ||b - A image||: bit for bit where _Run is
    handed a residual computed afresh from x, and to 1e-9 of ||b|| for the
    recurrences of gd, cgd and poisson, which reads the clamped readings."""
    ps, meas = protocol_cell(level)
    b = np.maximum(meas.values, 0.0) if name == "poisson" else meas.values
    report = get_solver(name)(ps, meas, 8, 8)
    rnorm = float(np.linalg.norm(b - ps.rows @ report.image.data))
    if name in ("gd", "cgd", "poisson"):
        assert abs(report.trace[-1][1] - rnorm) <= 1e-9 * np.linalg.norm(b)
    else:
        assert report.trace[-1][1] == rnorm
    if name in ("gd", "cgd", "ap"):
        assert all(obj == r**2 for _, r, obj in report.trace)


def test_reports_are_deterministic():
    ps = generate_patterns(40, 4, 4, seed=40)
    truth = builtin_scene("blocks", 4, 4)
    meas = synthesize(ps, truth)
    for name, solve in solver_registry():
        if name == "pinv":
            continue  # m < n here
        r1 = solve(ps, meas, 4, 4)
        r2 = solve(ps, meas, 4, 4)
        assert np.array_equal(r1.image.data, r2.image.data), name
        assert [(k, r, o) for k, r, o in r1.trace] == r2.trace, name


@pytest.mark.parametrize("kwargs", [
    {"residual_change_threshold": -1e-3},
    {"residual_change_threshold": float("nan")},
    {"residual_change_threshold": float("inf")},
    {"min_iterations": -5},
    {"max_iterations_factor": -1.0},
    {"max_iterations_factor": float("nan")},
    # nan and inf passed the >= 0 check and made max_iterations nan or inf, so
    # _Run.record never stopped; 1.5 was taken as it stood
    {"min_iterations": float("nan")},
    {"min_iterations": float("inf")},
    {"min_iterations": 1.5},
])
def test_stop_criteria_rejects_bad_values(kwargs):
    with pytest.raises(InvalidArgumentError, match=next(iter(kwargs))):
        StopCriteria(**kwargs)


def test_stop_criteria_takes_any_integer_min_iterations():
    assert StopCriteria(min_iterations=np.int64(3)).max_iterations(1) == 3


def test_stop_criteria_accepts_zero_budget_fields():
    stop = StopCriteria(residual_change_threshold=0.0, min_iterations=0,
                        max_iterations_factor=0.0)
    assert stop.max_iterations(9) == 1


# ------------------------------------------------------------ product counts


class _Products:
    def __init__(self, m):
        self.m = m
        self.A = 0  # A v: the result has one entry per pattern
        self.AT = 0  # A^T r or r^T A: one entry per pixel


class CountingMatrix(np.ndarray):
    """Pattern matrix that counts the products with A and A^T it takes part in.

    A product counts when the 2-D matrix, or a transposed view of it, is an
    operand of @.  Row dot products a_i . x have only 1-D operands and do
    not count.  Every result is a plain ndarray.
    """

    products = None

    def __array_finalize__(self, obj):
        self.products = getattr(obj, "products", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(v):
            return v.view(np.ndarray) if isinstance(v, CountingMatrix) else v

        if "out" in kwargs:
            kwargs["out"] = tuple(plain(v) for v in kwargs["out"])
        result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        if ufunc is np.matmul and any(
                isinstance(v, CountingMatrix) and v.ndim == 2 for v in inputs):
            if result.shape == (self.products.m,):
                self.products.A += 1
            else:
                self.products.AT += 1
        return result


def _count_products(patterns: PatternSet) -> _Products:
    """Swap patterns.rows for a counting view; returns the live counters.
    Needs m != n, since the result's length tells A from A^T."""
    rows = patterns.rows.view(CountingMatrix)
    rows.products = _Products(patterns.m)
    patterns.rows = rows
    return rows.products


# solver: (A at set-up, A^T at set-up, A per iteration, A^T per iteration);
# cs-dct and cs-tv add 1 A + 1 A^T per inner CG step, and apply their prior
# exactly as often as A (apply) and A^T (apply_transpose)
PRODUCTS = {
    "gd": (0, 0, 1, 1),
    "cgd": (0, 1, 1, 1),
    "poisson": (1, 0, 1, 1),
    "ap": (0, 0, 1, 0),
    "cs-dct": (1, 0, 1, 2),
    "cs-tv": (1, 0, 1, 2),
}
ALM = ("cs-dct", "cs-tv")


def _count_prior_calls(monkeypatch):
    """Make every prior the registry builds count its apply and
    apply_transpose calls; returns the live counters."""
    calls = {"apply": 0, "apply_transpose": 0}

    def counted(fn, key):
        def call(v):
            calls[key] += 1
            return fn(v)
        return call

    def counting(make):
        def build(width, height):
            op = make(width, height)
            return dataclasses.replace(
                op, apply=counted(op.apply, "apply"),
                apply_transpose=counted(op.apply_transpose, "apply_transpose"))
        return build

    for name in ("dct_operator", "gradient_operator"):
        monkeypatch.setattr(solvers, name, counting(getattr(solvers, name)))
    return calls


def test_counting_matrix_sees_both_directions():
    ps = generate_patterns(24, 4, 4, seed=41)
    products = _count_products(ps)
    gd_gradient(ps, np.ones(16), MeasurementSet(values=np.ones(24)))
    assert (products.A, products.AT) == (1, 1)
    ap_update(ps.rows[0], 1.0, 1.0, np.ones(16), np.empty(16))  # a 1-D dot product
    assert (products.A, products.AT) == (1, 1)


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_products_per_iteration_are_pinned(name, monkeypatch):
    """Hardware-independent perf gate: the A and A^T products and prior
    applies each solver makes, once at set-up, per iteration and per inner
    CG step, under a fixed budget."""
    setup_a, setup_at, per_a, per_at = PRODUCTS[name]
    meas = synthesize(generate_patterns(24, 4, 4, seed=41),
                      builtin_scene("blocks", 4, 4))
    for k in (3, 7):
        budget = StopCriteria(residual_change_threshold=0.0, min_iterations=k,
                              max_iterations_factor=0.0)
        plain = get_solver(name)(generate_patterns(24, 4, 4, seed=41), meas, 4, 4,
                                 stop=budget)
        ps = generate_patterns(24, 4, 4, seed=41)
        products = _count_products(ps)
        with monkeypatch.context() as patch:
            prior = _count_prior_calls(patch)
            rep = get_solver(name)(ps, meas, 4, 4, stop=budget)
        steps = rep.inner_cg_steps
        assert rep.iterations == k
        assert np.array_equal(rep.image.data, plain.image.data)
        assert (products.A, products.AT) == (setup_a + k * per_a + steps,
                                             setup_at + k * per_at + steps)
        assert (prior["apply"], prior["apply_transpose"]) == (
            (products.A, products.AT) if name in ALM else (0, 0))
        assert (steps > 0) == (name in ALM)


def test_report_counts_linesearch_trials_and_inner_cg_steps(monkeypatch):
    """SolverReport's counters equal counts taken by wrapping the Armijo
    trial callable and the operator of the shared CG, and counting leaves
    every iterate unchanged."""
    ps = generate_patterns(24, 4, 4, seed=41)
    meas = synthesize(ps, builtin_scene("blocks", 4, 4))
    budget = StopCriteria(residual_change_threshold=0.0, min_iterations=7,
                          max_iterations_factor=0.0)
    names = sorted(PRODUCTS)
    plain = {name: get_solver(name)(ps, meas, 4, 4, stop=budget) for name in names}

    seen = {}
    armijo, cg = solvers._armijo, solvers._cg

    def counting_armijo(trial, *args):
        def counted(step):
            seen["trials"] += 1
            return trial(step)
        return armijo(counted, *args)

    def counting_cg(normal, *args):
        def counted(v):
            seen["normals"] += 1
            return normal(v)
        return cg(counted, *args)

    monkeypatch.setattr(solvers, "_armijo", counting_armijo)
    monkeypatch.setattr(solvers, "_cg", counting_cg)
    for name in names:
        seen.update(trials=0, normals=0)
        rep = get_solver(name)(ps, meas, 4, 4, stop=budget)
        assert np.array_equal(rep.image.data, plain[name].image.data), name
        assert rep.linesearch_trials == plain[name].linesearch_trials == seen["trials"]
        assert rep.inner_cg_steps == plain[name].inner_cg_steps == (
            seen["normals"] if name in ALM else 0)
    assert plain["poisson"].linesearch_trials >= plain["poisson"].iterations == 7
    assert plain["cs-dct"].inner_cg_steps > 0 and plain["cs-tv"].inner_cg_steps > 0


def test_cgd_and_alm_run_the_one_cg_loop(monkeypatch):
    """cgd_solve runs one _cg for its whole solve and _alm_solve one per outer
    iteration; no other solver runs it, and iterates are unchanged."""
    ps = generate_patterns(24, 4, 4, seed=41)
    meas = synthesize(ps, builtin_scene("blocks", 4, 4))
    budget = StopCriteria(residual_change_threshold=0.0, min_iterations=7,
                          max_iterations_factor=0.0)
    plain = {name: solve(ps, meas, 4, 4, stop=budget) for name, solve in solver_registry()}
    cg, runs = solvers._cg, []

    def traced(*args):
        runs.append(1)
        return cg(*args)

    monkeypatch.setattr(solvers, "_cg", traced)
    for name, ref in plain.items():
        runs.clear()
        rep = get_solver(name)(ps, meas, 4, 4, stop=budget)
        assert np.array_equal(rep.image.data, ref.image.data), name
        assert rep.trace == ref.trace, name
        expected = {"cgd": 1, "cs-dct": rep.iterations, "cs-tv": rep.iterations}
        assert len(runs) == expected.get(name, 0), name
    assert not hasattr(solvers, "_inner_cg")


def test_alm_cg_on_an_indefinite_system_is_a_numerical_failure():
    """Patterns scaled so that ||Ap|| < ||p||, with a prior whose adjoint
    negates, make P^T P + A^T A negative definite while mu A^T b != 0: the
    shared CG refuses its first step."""
    ps = PatternSet(generate_patterns(24, 4, 4, seed=41).rows * 1e-3)
    meas = synthesize(ps, builtin_scene("blocks", 4, 4))
    prior = LinearOperator(apply=lambda v: np.array(v), apply_transpose=lambda v: -v)
    with pytest.raises(NumericalFailureError, match="CG step 1: G is not positive definite"):
        solvers._alm_solve(ps, meas, prior, 4, 4)


@pytest.mark.parametrize("name", [name for name, _ in solver_registry()])
def test_no_measurements_no_image(name):
    """With m = 0 every solver refuses: no measurement supports an image."""
    with pytest.raises(InvalidArgumentError, match="m = 0"):
        get_solver(name)(PatternSet(np.empty((0, 16))), MeasurementSet(np.empty(0)), 4, 4)


@pytest.mark.parametrize("name", [name for name, _ in solver_registry()])
def test_a_wrong_image_shape_is_refused_before_any_product(name):
    """A width x height that does not hold the n pattern pixels is refused
    up front, not after a whole solve when the image is built."""
    ps = generate_patterns(128, 16, 16, seed=48)
    meas = synthesize(ps, builtin_scene("blocks", 16, 16))
    products = _count_products(ps)
    with pytest.raises(InvalidArgumentError, match="10x20 does not hold the 256"):
        get_solver(name)(ps, meas, 10, 20)
    assert (products.A, products.AT) == (0, 0)


@pytest.mark.parametrize("name, helper, public", [
    ("gd", "_gd_grad", gd_gradient),
    ("poisson", "_poisson_grad", poisson_gradient),
])
def test_solvers_run_the_gradient_arithmetic_criterion_6_checks(monkeypatch, name,
                                                                helper, public):
    """gd_solve and poisson_solve take their gradient from the private helper
    behind gd_gradient and poisson_gradient, which criterion 6 checks against
    finite differences: one call per iteration, iterates unchanged."""
    ps = generate_patterns(24, 4, 4, seed=41)
    meas = synthesize(ps, builtin_scene("blocks", 4, 4))
    budget = StopCriteria(residual_change_threshold=0.0, min_iterations=7,
                          max_iterations_factor=0.0)
    plain = get_solver(name)(ps, meas, 4, 4, stop=budget)
    grad, calls = getattr(solvers, helper), []

    def counted(A, Ax, b):
        calls.append(1)
        return grad(A, Ax, b)

    monkeypatch.setattr(solvers, helper, counted)
    rep = get_solver(name)(ps, meas, 4, 4, stop=budget)
    assert np.array_equal(rep.image.data, plain.image.data)
    assert len(calls) == rep.iterations == 7
    public(ps, np.full(16, 0.5), meas)
    assert len(calls) == 8


@pytest.mark.parametrize("name, helper", [("gd", "_gd_grad"), ("poisson", "_poisson_grad")])
def test_the_carried_ax_does_not_drift_over_a_long_solve(monkeypatch, name, helper):
    """gd and poisson carry Ax forward (Ax -= step * Ap, Ax + step * Ap)
    instead of recomputing A x.  After 3,072 iterations at 16^2 the last
    trace residual equals a fresh ||b - A x||, and the Ax the next gradient
    is given equals a fresh A x, both within 1e-9 relative.  Noisy readings
    at m = 2n keep the residual away from 0."""
    k = 3072
    ps = generate_patterns(512, 16, 16, seed=5)
    meas = add_noise(synthesize(ps, builtin_scene("disk", 16, 16)),
                     NoiseModel(level=1e-3, pixel_count=256), seed=6)
    b = np.maximum(meas.values, 0.0) if name == "poisson" else meas.values

    def budget(iterations):
        return StopCriteria(residual_change_threshold=0.0, min_iterations=iterations,
                            max_iterations_factor=0.0)

    rep = get_solver(name)(ps, meas, 16, 16, stop=budget(k))
    x = rep.image.data.ravel()
    assert rep.iterations == k
    fresh = np.linalg.norm(b - ps.rows @ x)
    assert rep.trace[-1][1] == pytest.approx(fresh, rel=1e-9, abs=0)

    grad, given = getattr(solvers, helper), []

    def seen(A, Ax, b):
        given.append(Ax.copy())
        return grad(A, Ax, b)

    monkeypatch.setattr(solvers, helper, seen)
    get_solver(name)(ps, meas, 16, 16, stop=budget(k + 1))
    carried = given[-1]  # the Ax after iteration k, given to gradient k + 1
    assert len(given) == k + 1
    assert np.linalg.norm(carried - ps.rows @ x) <= 1e-9 * np.linalg.norm(ps.rows @ x)


IMAGES = """
import hashlib, sys
from spi_recon.model import generate_patterns, synthesize
from spi_recon.scenes import builtin_scene
from spi_recon.solvers import get_solver
m, w, h = map(int, sys.argv[1:])
ps = generate_patterns(m, w, h, seed=3)
meas = synthesize(ps, builtin_scene("disk", w, h))
for name in ("cgd", "gd", "cs-tv"):
    rep = get_solver(name)(ps, meas, w, h)
    print(name, rep.iterations, hashlib.sha256(rep.image.data.tobytes()).hexdigest())
"""


def test_images_do_not_depend_on_the_blas_thread_count_when_m_is_a_multiple_of_8(
        run_python):
    """The solvers multiply A whole.  A two-thread BLAS splits a gemv's rows
    in half once m * n is large enough (here 720 x 32^2), and its kernels
    take rows 4 at a time, so with m a multiple of 8 both halves group rows
    as one thread does and the images are bit-identical.  At m = 717 they
    are not (README, "Reproducibility")."""
    outputs = []
    for threads in (1, 2):
        out = run_python(IMAGES, 720, 32, 32, threads=threads)
        assert out.returncode == 0, out.stderr
        outputs.append(out.stdout.splitlines())
    assert len(outputs[0]) == 3 and outputs[0] == outputs[1], outputs
