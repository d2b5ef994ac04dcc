import math
import warnings

import numpy as np
import pytest

from fixtures import SWEEP_FLAG, recovery_dataset, recovery_params, short_tail_input, sweep_input

from hystfit import (
    ConfigError,
    FitConfig,
    InitializationError,
    InputError,
    NumericalError,
    ParameterError,
    Trajectory,
    build_model,
    compute_metrics,
    default_initial_guess,
    gen_synthetic,
    jacobian_fd,
    lm_fit,
    param_bounds,
    param_names,
    predict,
    project_params,
    residuals,
    validate_params,
)
from hystfit.fitting import _fit_pair, jacobian
from hystfit.operators import _BLOCK

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def small_fixture():
    """Smaller copy of the recovery benchmark for fast unit tests."""
    base = sweep_input(n=1200)
    params = recovery_params(0)
    clean = gen_synthetic(build_model(params, "egpi", SWEEP_FLAG), base, 0.0)
    noisy = gen_synthetic(build_model(params, "egpi", SWEEP_FLAG), base, 0.1, seed=0)
    return base, params, clean, noisy


# ------------------------------------------------------------------- bounds

def test_validate_params_accepts_generating_vector():
    validate_params(recovery_params(3), "egpi")


@pytest.mark.parametrize(
    "name,value",
    [("asc_slope", -1.0), ("lam", 0.0), ("sigma", -0.1), ("r1", 0.0), ("kappa", -2.0)],
)
def test_validate_params_rejects_bound_violations(name, value):
    p = recovery_params(0)
    p[list(param_names("egpi")).index(name)] = value
    with pytest.raises(ParameterError):
        validate_params(p, "egpi")


def test_validate_params_rejects_r1_above_rn():
    p = recovery_params(0)
    names = list(param_names("egpi"))
    p[names.index("r1")] = 3.0
    p[names.index("rn")] = 1.0
    with pytest.raises(ParameterError):
        validate_params(p, "egpi")


@pytest.mark.parametrize("mode,params", [
    ("gpi", {"a": 1}),
    ("gpi", ["x"] * 8),
    ("egpi", [[1.0, 2.0], [3.0]]),
    ("gpi", ["3", "1", "3", "5", "0.07", "0.1", "0.3", "2"]),
    ("gpi", [True] * 8),
    ("gpi", [10**400] * 8),
])
def test_non_numeric_parameters_raise_parameter_error(small_fixture, mode, params):
    # each used to escape as a bare TypeError, ValueError or OverflowError
    noisy = small_fixture[3]
    with pytest.raises(ParameterError, match=f"mode {mode!r} takes numeric parameters"):
        validate_params(params, mode)
    with pytest.raises(ParameterError, match=f"mode {mode!r}"):
        residuals(params, noisy, SWEEP_FLAG, mode)
    with pytest.raises(ParameterError, match=f"mode {mode!r}"):
        lm_fit(noisy, FitConfig(v_f=SWEEP_FLAG, initial=params), mode=mode)


def test_non_numeric_parameter_message_names_only_the_first_offender(small_fixture):
    # the message held the repr of every element: 4,475 characters here
    params = [10**400] * 11
    for call in (lambda: validate_params(params, "egpi"),
                 lambda: lm_fit(small_fixture[3], FitConfig(v_f=SWEEP_FLAG, initial=params))):
        with pytest.raises(ParameterError, match="at index 0$") as err:
            call()
        assert len(str(err.value)) < 120
    with pytest.raises(ParameterError, match="got 'x' at index 7$"):
        validate_params([1.0] * 7 + ["x"], "gpi")


def test_param_bounds_are_a_fresh_array_per_call():
    lo = param_bounds("gpi")
    assert lo.flags.writeable
    lo[:] = 5.0
    floor = 1e-6
    assert np.array_equal(param_bounds("gpi"),
                          [floor, -np.inf, floor, -np.inf, floor, 0.0, floor, floor])
    with pytest.raises(ConfigError):
        param_bounds("pgi")


def test_project_params_restores_invariants():
    p = recovery_params(0)
    names = list(param_names("egpi"))
    p[names.index("lam")] = -4.0
    p[names.index("r1")] = 2.5
    p[names.index("rn")] = 0.5
    q = project_params(p, "egpi")
    validate_params(q, "egpi")
    assert q[names.index("r1")] == q[names.index("rn")] == 1.5


def test_param_layout_lengths():
    assert len(param_names("egpi")) == 11
    assert len(param_names("gpi")) == 8
    with pytest.raises(ConfigError):
        param_names("bouc")


def test_build_model_shares_ascending_envelope_and_density():
    model = build_model(recovery_params(1), "egpi", SWEEP_FLAG)
    sub1, sub2 = model.submodels
    assert sub1.asc_env is sub2.asc_env
    assert sub1.density is sub2.density
    assert sub1.kappa_desc == 1.0
    assert sub2.kappa_desc == recovery_params(1)[-1]
    with pytest.raises(ConfigError):
        build_model(recovery_params(1), "egpi", v_f=None)


@pytest.mark.parametrize("v_f", [True, "6", np.nan, [6.0], np.inf])
def test_flag_point_must_be_a_number(small_fixture, v_f):
    _, params, clean, _ = small_fixture
    for call in (lambda: build_model(params, "egpi", v_f),
                 lambda: residuals(params, clean, v_f, "egpi"),
                 lambda: jacobian(params, clean, v_f, "egpi"),
                 lambda: jacobian_fd(params, clean, v_f, "egpi"),
                 lambda: default_initial_guess(clean, v_f, "egpi")):
        with pytest.raises(ConfigError, match="v_f"):
            call()


@pytest.mark.parametrize("mode, params, message", [
    ("egpi", np.ones(10), r"mode 'egpi' takes 11 parameters, got shape \(10,\)"),
    ("gpi", np.ones((2, 8)), r"mode 'gpi' takes 8 parameters, got shape \(2, 8\)"),
    ("gpi", [1.0] * 9, r"mode 'gpi' takes 8 parameters, got shape \(9,\)"),
    ("gpi", np.array([1.0, np.nan, 1.0, 1.0, 0.07, 0.1, 0.3, 2.0]), "parameters must be finite"),
    ("egpi", np.r_[recovery_params(0)[:10], np.inf], "parameters must be finite"),
    # as a list or tuple, as a config's "initial" arrives: these were named
    # non-numeric ("takes numeric parameters, got nan at index 1")
    ("gpi", [1.0, float("nan"), 1, 1, 0.07, 0.1, 0.3, 2], "parameters must be finite"),
    ("egpi", (*recovery_params(0)[:10].tolist(), float("inf")), "parameters must be finite"),
    ("gpi", [np.float64(-np.inf), 1.0, 1, 1, 0.07, 0.1, 0.3, 2], "parameters must be finite"),
])
def test_validate_params_rejects_shape_and_non_finite_values(mode, params, message):
    with pytest.raises(ParameterError, match=message):
        validate_params(params, mode)


def test_integer_flag_point_is_stored_as_a_float():
    flag = build_model(recovery_params(1), "egpi", 6).flag_desc
    assert type(flag) is float and flag == 6.0


# ---------------------------------------------------------------- residuals

def test_residuals_vanish_on_generating_params(small_fixture):
    base, params, clean, _ = small_fixture
    res = residuals(params, clean, SWEEP_FLAG, "egpi")
    assert np.max(np.abs(res)) < 1e-10


def test_residuals_constant_offset(small_fixture):
    base, params, clean, _ = small_fixture
    shifted = Trajectory(t=clean.t, v=clean.v, theta=clean.theta + 1.0)
    res = residuals(params, shifted, SWEEP_FLAG, "egpi")
    assert np.allclose(res, -1.0, atol=1e-10)


def test_objective_matches_independent_summation(small_fixture):
    base, params, _, noisy = small_fixture
    perturbed = project_params(params * 1.05, "egpi")
    res = residuals(perturbed, noisy, SWEEP_FLAG, "egpi")
    objective = float(res @ res)
    oracle = math.fsum(float(e) ** 2 for e in res)
    assert objective == pytest.approx(oracle, rel=1e-12)


def test_residuals_require_theta(small_fixture):
    base, params, clean, _ = small_fixture
    with pytest.raises(InputError):
        residuals(params, base, SWEEP_FLAG, "egpi")
    with pytest.raises(InputError):
        jacobian_fd(params, base, SWEEP_FLAG, "egpi")
    # the angles do not enter the Jacobian
    assert np.array_equal(jacobian(params, base, SWEEP_FLAG, "egpi"),
                          jacobian(params, clean, SWEEP_FLAG, "egpi"))


def test_residuals_reject_out_of_bounds(small_fixture):
    _, params, _, noisy = small_fixture
    bad = params.copy()
    bad[6] = -1.0
    with pytest.raises(ParameterError):
        residuals(bad, noisy, SWEEP_FLAG, "egpi")


# ----------------------------------------------------------------- jacobian

def test_jacobian_lam_column_matches_linear_scaling(small_fixture):
    _, params, _, noisy = small_fixture
    J = jacobian_fd(params, noisy, SWEEP_FLAG, "egpi")
    lam_idx = list(param_names("egpi")).index("lam")
    lam = params[lam_idx]
    model_out = residuals(params, noisy, SWEEP_FLAG, "egpi") + noisy.theta
    analytic = model_out / lam
    scale = float(np.max(np.abs(analytic)))
    assert np.max(np.abs(J[:, lam_idx] - analytic)) <= 1e-8 * scale


def test_jacobian_dead_parameters_when_descent_stays_above_flag():
    # sweep never descends past the flag, so the second bank's descending
    # envelope and regulator cannot influence the output
    v = np.concatenate([np.linspace(0, 10, 300), np.linspace(10, 7, 100)[1:]])
    base = Trajectory(t=1e-3 * np.arange(v.size), v=v)
    params = recovery_params(0)
    data = gen_synthetic(build_model(params, "egpi", SWEEP_FLAG), base, 0.0)
    J = jacobian_fd(params, data, SWEEP_FLAG, "egpi")
    names = list(param_names("egpi"))
    for name in ("desc2_slope", "desc2_intercept", "kappa"):
        assert np.max(np.abs(J[:, names.index(name)])) < 1e-7


def test_jacobian_forward_central_step_halving(small_fixture):
    _, params, _, noisy = small_fixture
    sigma_idx = list(param_names("egpi")).index("sigma")
    J_ref = jacobian_fd(params, noisy, SWEEP_FLAG, "egpi", rel_step=1e-6)
    errs = []
    for h in (1e-3, 5e-4):
        J_f = jacobian_fd(params, noisy, SWEEP_FLAG, "egpi", rel_step=h, scheme="forward")
        errs.append(float(np.max(np.abs(J_f[:, sigma_idx] - J_ref[:, sigma_idx]))))
    assert errs[1] <= 0.75 * errs[0] + 1e-12


@pytest.mark.parametrize("r", [0.3, 1e-6])
def test_jacobian_fd_at_r1_equal_to_rn(small_fixture, r):
    # r1 == rn: r1 cannot step up, so its column takes the minus step; at
    # the floor it cannot step down either, and the column is pinned to 0
    noisy = small_fixture[3]
    names = list(param_names("gpi"))
    i1, i2 = names.index("r1"), names.index("rn")
    p = recovery_params(0)[[0, 1, 2, 3, 6, 7, 8, 9]]
    p[i1] = p[i2] = r
    J = jacobian_fd(p, noisy, mode="gpi")
    h = max(1e-6 * r, 1e-6)
    if r > 1e-6:
        minus = p.copy()
        minus[i1] -= h
        base = residuals(p, noisy, mode="gpi")
        assert np.array_equal(J[:, i1], (base - residuals(minus, noisy, mode="gpi")) / h)
        assert np.any(J[:, i1])
    else:
        assert not np.any(J[:, i1])
    assert np.all(np.isfinite(J)) and np.any(J[:, i2])


def test_jacobian_falls_back_to_one_sided_at_bounds(small_fixture):
    _, params, _, noisy = small_fixture
    p = params.copy()
    p[list(param_names("egpi")).index("sigma")] = 0.0  # sits on its bound
    J = jacobian_fd(p, noisy, SWEEP_FLAG, "egpi")
    assert np.all(np.isfinite(J))


# ------------------------------------------------------------ tangent pass

GPI_COLUMNS = [0, 1, 2, 3, 6, 7, 8, 9]  # gpi layout as a subset of the egpi one


def _tangent_cases():
    """(params, mode, n, signal) over seeded random in-bounds starts plus
    degenerate banks: a single threshold and a crossed-envelope start, all
    on the sweep input; one start on the dither input, one on the mixed
    input, and one on each input with long holds."""
    rng = np.random.default_rng(11)
    cases = []
    for seed in range(4):
        p = project_params(recovery_params(seed) * rng.uniform(0.7, 1.3, 11), "egpi")
        cases.append(pytest.param(p, "egpi", 30, "sweep", id=f"egpi{seed}"))
        cases.append(pytest.param(p[GPI_COLUMNS], "gpi", 30, "sweep", id=f"gpi{seed}"))
        if seed == 0:
            cases.append(pytest.param(p, "egpi", 30, "dither", id="egpi-dither"))
            cases.append(pytest.param(p[GPI_COLUMNS], "gpi", 30, "dither", id="gpi-dither"))
        if seed == 1:
            cases.append(pytest.param(p, "egpi", 30, "mixed", id="egpi-mixed"))
            cases.append(pytest.param(p[GPI_COLUMNS], "gpi", 30, "mixed", id="gpi-mixed"))
        if seed == 2:
            for signal in ("holds", "const3", "const8"):
                cases.append(pytest.param(p, "egpi", 30, signal, id=f"egpi-{signal}"))
                cases.append(pytest.param(p[GPI_COLUMNS], "gpi", 30, signal, id=f"gpi-{signal}"))
    cases.append(pytest.param(recovery_params(1), "egpi", 1, "sweep", id="egpi-n1"))
    cases.append(pytest.param(recovery_params(2)[GPI_COLUMNS], "gpi", 1, "sweep", id="gpi-n1"))
    crossed = recovery_params(3)
    crossed[1], crossed[3] = 6.0, -4.0  # ascending envelope above descending at v=0
    cases.append(pytest.param(crossed, "egpi", 30, "sweep", id="egpi-crossed"))
    cases.append(pytest.param(crossed[GPI_COLUMNS], "gpi", 30, "sweep", id="gpi-crossed"))
    return cases


TANGENT_CASES = _tangent_cases()


@pytest.fixture(scope="module")
def tangent_data(small_fixture):
    """Noisy data per input signal: the sweep, a quantized dither, the
    mixed input, and three inputs with long holds.

    The dither is a slow rise-fall with noise, rounded to a 0.1 quantum
    (1% of the range): most runs last one or two samples and about a
    third of the steps are exact holds. A hold of ``_LONG`` samples or
    more is one walk entry: ``holds`` rests at 9 for 200 samples and at 3
    for 700, longer than a block; ``const3`` and ``const8`` never move,
    and report bank 2 and bank 1 of an egpi model (flag 6).
    """
    n = 1200
    rng = np.random.default_rng(21)
    ramp = np.concatenate([np.linspace(0.0, 10.0, n // 2), np.linspace(10.0, 0.0, n - n // 2)])
    v = np.round((ramp + rng.normal(0.0, 0.1, n)) / 0.1) * 0.1
    base = Trajectory(t=1e-3 * np.arange(n), v=v)
    dither = gen_synthetic(build_model(recovery_params(0), "egpi", SWEEP_FLAG), base, 0.1, seed=21)
    holds = np.concatenate([
        np.linspace(0.0, 9.0, 300),
        np.full(200, 9.0),
        np.linspace(9.0, 3.0, 300),
        np.full(700, 3.0),
        np.linspace(3.0, 0.0, 200),
    ])
    data = {"sweep": small_fixture[3], "dither": dither, "mixed": _mixed_data()}
    model = build_model(recovery_params(2), "egpi", SWEEP_FLAG)
    for seed, (name, v) in enumerate(
        [("holds", holds), ("const3", np.full(n, 3.0)), ("const8", np.full(n, 8.0))], start=23
    ):
        base = Trajectory(t=1e-3 * np.arange(v.size), v=v)
        data[name] = gen_synthetic(model, base, 0.1, seed=seed)
    return data


def _mixed_data():
    """Runs longer than a block, each one walk entry, and each followed
    by a dither: a rise to 10, a dither at the top, a fall through the
    flag point, a dither around it, and a fall to 0."""
    rng = np.random.default_rng(22)

    def dither(level, n):
        return np.round((level + rng.normal(0.0, 0.1, n)) / 0.1) * 0.1

    v = np.concatenate([
        np.linspace(0.0, 10.0, _BLOCK + 300),
        dither(10.0, 150),
        np.linspace(10.0, SWEEP_FLAG, _BLOCK + 100),
        dither(SWEEP_FLAG, 150),
        np.linspace(SWEEP_FLAG, 0.0, 400),
    ])
    base = Trajectory(t=1e-3 * np.arange(v.size), v=v)
    return gen_synthetic(build_model(recovery_params(1), "egpi", SWEEP_FLAG), base, 0.1, seed=22)


@pytest.mark.parametrize("params,mode,n,signal", TANGENT_CASES)
def test_tangent_jacobian_matches_central_differences(tangent_data, params, mode, n, signal):
    # rows where two central-difference steps disagree straddle a
    # crossover (a kink of the output); elsewhere the exact columns must
    # match the finite differences
    data = tangent_data[signal]
    J = jacobian(params, data, SWEEP_FLAG, mode, n)
    J6 = jacobian_fd(params, data, SWEEP_FLAG, mode, n, rel_step=1e-6)
    J7 = jacobian_fd(params, data, SWEEP_FLAG, mode, n, rel_step=1e-7)
    tol = 1e-6 * np.max(np.abs(J6), axis=0)
    smooth = np.all(np.abs(J6 - J7) <= tol, axis=1)
    assert np.count_nonzero(~smooth) < 0.01 * smooth.size
    assert np.all(np.abs(J - J6)[smooth] <= tol)


def _reversal_below_flag():
    """The recovery sweep with a reversal below the flag after the rest:
    rise 0 -> 10, fall to the flag, rest, then 6 -> 3 -> 5 -> 0."""
    v = np.concatenate([
        np.linspace(0.0, 10.0, 2500, endpoint=False),
        np.linspace(10.0, SWEEP_FLAG, 1000, endpoint=False),
        np.full(100, SWEEP_FLAG),
        np.linspace(SWEEP_FLAG, 3.0, 500, endpoint=False),
        np.linspace(3.0, 5.0, 400, endpoint=False),
        np.linspace(5.0, 0.0, 500),
    ])
    return Trajectory(t=1e-3 * np.arange(v.size), v=v)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("mode", ["egpi", "gpi"])
def test_tangent_matches_central_differences_on_a_reversal_below_the_flag(seed, mode):
    # the check of test_tangent_jacobian_matches_central_differences, with
    # its bounds, on a sweep whose runs below the flag reverse: each long
    # run's rows come from prefix sums in its closed-form order
    params = recovery_params(seed)
    params = params if mode == "egpi" else params[GPI_COLUMNS]
    model = build_model(recovery_params(seed), "egpi", SWEEP_FLAG)
    data = gen_synthetic(model, _reversal_below_flag(), 0.1, seed=seed)
    J = jacobian(params, data, SWEEP_FLAG, mode)
    J6 = jacobian_fd(params, data, SWEEP_FLAG, mode, rel_step=1e-6)
    J7 = jacobian_fd(params, data, SWEEP_FLAG, mode, rel_step=1e-7)
    tol = 1e-6 * np.max(np.abs(J6), axis=0)
    smooth = np.all(np.abs(J6 - J7) <= tol, axis=1)
    assert np.count_nonzero(~smooth) < 0.01 * smooth.size
    assert np.all(np.abs(J - J6)[smooth] <= tol)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_tangent_rows_equal_passes_over_every_row(seed):
    # a fit's tangent pass walks both banks' rows at once and computes each
    # sample's row from the bank reported there only; every row keeps the
    # bits of a pass of that bank alone, which computes every row. On the
    # short-tail input bank 2 reports no sample of a rise longer than
    # three blocks, one walk entry.
    from fixtures import bank_stack
    from hystfit.fitting import _COLUMNS, _tables
    from hystfit.operators import _bank_tangent, _plan, _reporting, _reports_second

    params = recovery_params(seed)
    model = build_model(params, "egpi", SWEEP_FLAG)
    fields, units = np.append(params, 1.0)[_COLUMNS["egpi"]], np.eye(12, 11)[_COLUMNS["egpi"]]
    grid = model.submodels[0].density._grid
    for traj in (sweep_input(), short_tail_input()):
        plan = _plan(traj.t, traj.v)
        J = _fit_pair(traj, params, SWEEP_FLAG, "egpi", 30)[1](params)
        alone = np.zeros(plan.v.size, dtype=bool)
        every = [_bank_tangent(stack, _tables(units[b:b + 1], 30)(fields[b:b + 1], *grid), plan,
                               alone, _reporting(plan, alone, stack.slices))
                 for b, stack in enumerate(map(bank_stack, model.submodels))]
        use2 = _reports_second(model, plan.v, plan.d)
        assert np.array_equal(J, np.where(use2[:, None], every[1], every[0]))


def _layout_vectors():
    """Seeded in-bounds vectors of both modes, with the edges of the bounds:
    r1 == rn at the floor, sigma == 0, and large negative intercepts."""
    rng = np.random.default_rng(28)
    names = param_names("egpi")
    vectors = []
    for k in range(6):
        p = project_params(recovery_params(k) * rng.lognormal(0.0, 0.3, 11), "egpi")
        if k == 1:
            p[names.index("r1")] = p[names.index("rn")] = 1e-6
        if k == 2:
            p[names.index("sigma")] = 0.0
        if k == 3:
            p[[1, 3, 5]] = -1e6, -3e5, -2e7
        vectors += [("egpi", p), ("gpi", p[GPI_COLUMNS])]
    return vectors


@pytest.mark.parametrize("n", [1, 2, 30])
def test_the_fit_rows_are_the_model_rows(n):
    # a fit lays each vector's banks out itself (``_fit_pair``), and
    # builds no model per call; every vector validate_params accepts
    # builds a model, whose evaluation has the bits of the fit's residuals
    from hystfit.operators import _evaluate, _plan

    traj = recovery_dataset(0, n=1200)[0]
    plan = _plan(traj.t, traj.v)
    for mode, p in _layout_vectors():
        validate_params(p, mode)
        model = build_model(p, mode, SWEEP_FLAG, n)
        fit_residuals = _fit_pair(traj, p, SWEEP_FLAG, mode, n)[0]
        assert np.array_equal(fit_residuals(p), _evaluate(model, plan)[0] - traj.theta)


@pytest.mark.parametrize("n, message", [(0, "threshold count n must be >= 1, got 0"),
                                        (2.5, "threshold count n must be an integer"),
                                        (True, "threshold count n must be an integer")])
def test_the_public_fit_functions_check_the_threshold_count(small_fixture, n, message):
    _, params, clean, _ = small_fixture
    for call in (residuals, jacobian, jacobian_fd):
        with pytest.raises(ConfigError, match=message):
            call(params, clean, SWEEP_FLAG, "egpi", n)


def test_a_fit_builds_its_model_once(small_fixture, monkeypatch):
    # every residual and Jacobian call of a fit lays its banks out itself;
    # the one model gives the switching and checks v_f and n. A vector is
    # checked twice, the start and the model's, as the fit projects the rest
    import hystfit.fitting as fitting

    _, params, _, noisy = small_fixture
    built, checked = [], []
    for name, calls in (("build_model", built), ("validate_params", checked)):
        real = getattr(fitting, name)
        monkeypatch.setattr(fitting, name,
                            lambda *a, real=real, calls=calls, **k: calls.append(a) or real(*a, **k))
    start = project_params(params * 1.1, "egpi")
    result = lm_fit(noisy, FitConfig(max_iterations=4, v_f=SWEEP_FLAG, initial=start), "egpi")
    assert result.iterations == 4
    assert len(built) == 1
    assert len(checked) == 2


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode", ["egpi", "gpi"])
def test_fit_pair_keeps_the_bits_of_the_public_residuals_and_jacobian(seed, mode):
    # lm_fit plans its input once; residuals and jacobian plan per call
    traj, _, params = recovery_dataset(seed)
    truth = params if mode == "egpi" else params[[0, 1, 2, 3, 6, 7, 8, 9]]
    guess = default_initial_guess(traj, SWEEP_FLAG, mode)
    fit_residuals, fit_jacobian, _ = _fit_pair(traj, truth, SWEEP_FLAG, mode, 30)
    for p in (truth, guess):
        assert np.array_equal(fit_residuals(p), residuals(p, traj, SWEEP_FLAG, mode))
        assert np.array_equal(fit_jacobian(p), jacobian(p, traj, SWEEP_FLAG, mode))


# ------------------------------------------------------------------- lm_fit

def test_lm_fit_fixed_point_at_truth(small_fixture):
    _, params, clean, _ = small_fixture
    result = lm_fit(clean, FitConfig(v_f=SWEEP_FLAG, initial=params), mode="egpi")
    assert result.iterations <= 2
    assert result.loss_trace[-1] < 1e-12
    assert result.converged


def test_lm_fit_recovers_from_perturbed_start(small_fixture):
    _, params, clean, noisy = small_fixture
    rng = np.random.default_rng(5)
    start = project_params(params * rng.uniform(0.8, 1.2, params.size), "egpi")
    result = lm_fit(noisy, FitConfig(v_f=SWEEP_FLAG, initial=start), mode="egpi")
    fit_model = build_model(result.params, "egpi", SWEEP_FLAG)
    pred = predict(fit_model, clean.t, clean.v)
    rmse_clean = float(np.sqrt(np.mean((pred - clean.theta) ** 2)))
    assert rmse_clean < 0.05


def test_lm_fit_noiseless_recovery_from_perturbed_starts():
    # ten noiseless fits started at truth perturbed by +-20% elementwise;
    # most land back on the generating model, a minority hit genuine
    # alternative basins of the two-stage landscape (measured 5..9/10
    # across perturbation families; the binding noisy-data recovery rate
    # is asserted in the acceptance suite at its own bound)
    base = sweep_input(n=1200)
    good = 0
    for seed in range(10):
        params = recovery_params(seed)
        clean = gen_synthetic(build_model(params, "egpi", SWEEP_FLAG), base, 0.0)
        rng = np.random.default_rng(200 + seed)
        start = project_params(params * rng.uniform(0.8, 1.2, params.size), "egpi")
        result = lm_fit(clean, FitConfig(v_f=SWEEP_FLAG, initial=start), mode="egpi")
        good += result.metrics.rmse < 1e-3
    assert good >= 7


def test_lm_fit_loss_trace_monotone(small_fixture):
    _, params, _, noisy = small_fixture
    start = project_params(params * 1.25, "egpi")
    result = lm_fit(
        noisy, FitConfig(v_f=SWEEP_FLAG, initial=start, max_iterations=25), mode="egpi"
    )
    assert np.all(np.diff(result.loss_trace) <= 0)


def test_lm_fit_deterministic(small_fixture):
    _, params, _, noisy = small_fixture
    start = project_params(params * 0.9, "egpi")
    cfg = dict(v_f=SWEEP_FLAG, initial=start, max_iterations=12)
    r1 = lm_fit(noisy, FitConfig(**cfg), mode="egpi")
    r2 = lm_fit(noisy, FitConfig(**cfg), mode="egpi")
    assert np.array_equal(r1.params, r2.params)
    assert r1.loss_trace == r2.loss_trace
    assert r1.metrics == r2.metrics


def test_lm_fit_final_loss_matches_residuals(small_fixture):
    _, params, _, noisy = small_fixture
    start = project_params(params * 1.15, "egpi")
    result = lm_fit(
        noisy, FitConfig(v_f=SWEEP_FLAG, initial=start, max_iterations=10), mode="egpi"
    )
    res = residuals(result.params, noisy, SWEEP_FLAG, "egpi")
    assert result.loss_trace[-1] == pytest.approx(float(res @ res), rel=1e-12)


@pytest.mark.parametrize("mode", ["egpi", "gpi"])
def test_lm_fit_metrics_are_those_of_the_returned_model(small_fixture, mode):
    _, _, _, noisy = small_fixture
    result = lm_fit(noisy, FitConfig(v_f=SWEEP_FLAG, max_iterations=10), mode=mode)
    prediction = predict(result.model(), noisy.t, noisy.v)
    assert result.metrics == compute_metrics(noisy.theta, prediction)


@pytest.mark.parametrize("seed, mode, loss_bound", [
    (1, "egpi", 49.9857),  # plain LM: 200 iterations, stopped on max_iterations
    (8, "gpi", 33922.8722),  # plain LM: 200 iterations, stopped on max_iterations
])
def test_lm_fit_converges_where_plain_damping_crawled(seed, mode, loss_bound):
    # full recovery sweeps on which diagonal-damped LM with a x10 schedule
    # crawls at relative drops of 1e-8..1e-6 per step until max_iterations
    noisy, _, _ = recovery_dataset(seed)
    result = lm_fit(noisy, FitConfig(v_f=SWEEP_FLAG), mode=mode)
    assert result.reason == "loss_tol"
    assert result.iterations <= 60
    assert result.loss_trace[-1] <= loss_bound


def _scaled(params, mode, c):
    """Slopes, intercepts, r1 and rn times c; lam and sigma over c."""
    scaled = params.copy()
    for i, name in enumerate(param_names(mode)):
        if name.endswith(("slope", "intercept")) or name in ("r1", "rn"):
            scaled[i] *= c
        elif name in ("lam", "sigma"):
            scaled[i] /= c
    return scaled


@pytest.mark.parametrize("mode", ["egpi", "gpi"])
@pytest.mark.parametrize("c", [0.5, 2.0, 7.3])
def test_scale_symmetry_leaves_output_unchanged(mode, c):
    # the play states scale by c and every weight by 1/c, so the output
    # does not move: the layout carries one redundant direction and J'J
    # is rank-deficient at every point
    n = 20_000
    rng = np.random.default_rng(31)
    ramp = np.concatenate([np.linspace(0.0, 10.0, n // 2), np.linspace(10.0, 0.0, n - n // 2)])
    v = np.round((ramp + rng.normal(0.0, 0.1, n)) / 0.1) * 0.1
    t = 1e-3 * np.arange(n)
    params = recovery_params(0)
    if mode == "gpi":
        params = params[GPI_COLUMNS]
    z = predict(build_model(params, mode, SWEEP_FLAG), t, v)
    z_scaled = predict(build_model(_scaled(params, mode, c), mode, SWEEP_FLAG), t, v)
    assert np.max(np.abs(z_scaled - z)) <= 1e-12


def test_lm_fit_warns_once_of_empty_bands_at_its_final_parameters(small_fixture):
    # its trial points do not warn; a fit stopped after one iteration from
    # crossed envelopes still has an empty band at v0, and says so once,
    # naming this line; one that runs on leaves it and does not warn
    _, _, _, noisy = small_fixture
    crossed = recovery_params(3)
    crossed[1], crossed[3] = 6.0, -4.0  # ascending envelope above descending at v=0
    start = crossed[GPI_COLUMNS]
    for iterations, count in ((1, 1), (200, 0)):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            lm_fit(noisy, FitConfig(max_iterations=iterations, initial=start), "gpi")
        assert [str(w.message) for w in record] == [
            "empty play band at v0=0.0 for 1 operator(s); left at 0"] * count
        assert all(w.filename == __file__ for w in record)


def test_lm_fit_rejects_bad_input(small_fixture):
    base, params, clean, _ = small_fixture
    with pytest.raises(InputError):
        lm_fit(base, FitConfig(v_f=SWEEP_FLAG), mode="egpi")  # no theta
    flat = Trajectory(t=clean.t[:100], v=np.zeros(100), theta=np.zeros(100))
    with pytest.raises(InputError):
        lm_fit(flat, FitConfig(v_f=SWEEP_FLAG), mode="egpi")
    tiny = Trajectory(t=clean.t[:10], v=clean.v[:10], theta=clean.theta[:10])
    with pytest.raises(InputError):
        lm_fit(tiny, FitConfig(v_f=SWEEP_FLAG), mode="egpi")
    with pytest.raises(ConfigError):
        lm_fit(clean, FitConfig(), mode="egpi")  # flag point missing


@pytest.mark.parametrize("solve_fails", ["raises", "non-finite"])
def test_lm_fit_failed_solve_raises_with_loss_trace(small_fixture, monkeypatch, solve_fails):
    # mu doubles on each failed solve; past 1e12 the fit gives up
    _, params, clean, _ = small_fixture
    start = params * 1.1
    e = residuals(start, clean, SWEEP_FLAG, "egpi")

    def solve(A, b):
        if solve_fails == "raises":
            raise np.linalg.LinAlgError("singular matrix")
        return np.full_like(b, np.nan)

    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(NumericalError, match="singular") as info:
        lm_fit(clean, FitConfig(v_f=SWEEP_FLAG, initial=start), mode="egpi")
    assert info.value.loss_trace == [float(e @ e)]


def test_fit_config_validation():
    with pytest.raises(ConfigError):
        FitConfig(max_iterations=0)
    with pytest.raises(ConfigError):
        FitConfig(mu0=-1.0)
    with pytest.raises(ConfigError):
        FitConfig(loss_tol=0.0)
    with pytest.raises(ConfigError, match="n_operators must be >= 1"):
        FitConfig(n_operators=0)


# ---------------------------------------------------------- initial guess

def test_default_guess_slope_on_near_backlash_free_data():
    # 25-operator bank with vanishing thresholds and unit total weight
    # degenerates to the shared ascending line; the regression on the upper
    # ascending half recovers its slope
    n_ops = 24
    lam = 1.0 / (n_ops + 1)
    # gpi layout: asc_slope, asc_intercept, desc_slope, desc_intercept, lam, sigma, r1, rn
    truth = np.array([2.0, 1.0, 2.0, 1.6, lam, 0.0, 1e-4, 2e-4])
    base = sweep_input(n=1000)
    data = gen_synthetic(build_model(truth, "gpi", n=n_ops), base, 0.0)
    guess = default_initial_guess(data, mode="gpi")
    assert guess[0] == pytest.approx(2.0, rel=0.10)


def test_default_guess_requires_descending_data():
    v = np.linspace(0, 10, 200)
    traj = Trajectory(t=np.arange(200.0), v=v, theta=2 * v)
    with pytest.raises(InitializationError):
        default_initial_guess(traj, mode="gpi")


def _guess_input(v, theta=True):
    v = np.asarray(v, dtype=float)
    return Trajectory(t=np.arange(float(v.size)), v=v, theta=2.0 * v if theta else None)


@pytest.mark.parametrize("traj, v_f, error, message", [
    (_guess_input(np.r_[0:10, 10:0:-1], theta=False), None, InputError,
     "initial guess needs measured angles"),
    (_guess_input(np.r_[10:0:-1, 1, 2, 1, 0]), None, InitializationError,
     "too few ascending samples for a regression"),
    # the flag lies above every descending sample, or below all but one
    (_guess_input(np.r_[0:10, 10:0:-1]), 20.0, InitializationError,
     "too few samples for the upper descending regression"),
    (_guess_input(np.r_[0:10, 10:0:-1]), 1.5, InitializationError,
     "too few samples for the lower descending regression"),
    # two of the three ascending samples lie in the upper half of their span
    (_guess_input(np.r_[0, 1, 0, 2, 0, 3, 2, 1, 0]), None, InitializationError,
     "too few samples for the ascending regression"),
])
def test_default_guess_error_paths(traj, v_f, error, message):
    mode = "gpi" if v_f is None else "egpi"
    with pytest.raises(error, match=message):
        default_initial_guess(traj, v_f, mode)


def test_default_guess_in_bounds_on_reference_output():
    from hystfit import reference_model

    from hystfit.signals import decaying_sinusoid

    base = decaying_sinusoid()
    data = gen_synthetic(reference_model(), base, noise_std=0.0)
    guess = default_initial_guess(data, v_f=-0.3, mode="egpi")
    validate_params(guess, "egpi")
    guess_gpi = default_initial_guess(data, mode="gpi")
    validate_params(guess_gpi, "gpi")


def test_default_guess_density_defaults(small_fixture):
    _, _, _, noisy = small_fixture
    guess = default_initial_guess(noisy, v_f=SWEEP_FLAG, mode="egpi")
    names = list(param_names("egpi"))
    assert guess[names.index("lam")] == 0.07
    assert guess[names.index("sigma")] == 0.1
    vrange = float(np.ptp(noisy.v))
    assert guess[names.index("r1")] == pytest.approx(0.01 * vrange)
    assert guess[names.index("rn")] == pytest.approx(0.25 * vrange)
    assert guess[names.index("kappa")] == 1.0
