import operator
from dataclasses import fields, replace

import numpy as np
import pytest

import bruteforce
from fixtures import (
    SWEEP_FLAG,
    bank_stack,
    oracle_kwargs,
    recovery_dataset,
    recovery_params,
    short_tail_input,
    sweep_input,
    unequal_banks_model,
)

from hystfit import (
    ConfigError,
    DensitySpec,
    EgpiModel,
    GpiModel,
    InputError,
    LinearEnvelope,
    TanhEnvelope,
    Trajectory,
    build_model,
    egpi_eval,
    gen_synthetic,
    gpi_eval,
    predict,
    reference_model,
)
from hystfit.fitting import _fit_pair, jacobian, jacobian_fd, residuals
from hystfit.operators import (
    _BLOCK,
    _LONG,
    _banks,
    _blocks,
    _directions,
    _evaluate,
    _grid,
    _plan,
    _reports_second,
    _sweep,
    egpi_outputs,
)
from hystfit.signals import decaying_sinusoid

IDENTITY = LinearEnvelope(a=1.0, b=0.0)


def classical_bank(r, asc_env=IDENTITY, desc_env=IDENTITY):
    """Operators with backlash 0 and r, unit weights."""
    return GpiModel(
        density=DensitySpec(lam=1.0, sigma=0.0, r1=r, rn=r, n=1),
        asc_env=asc_env,
        desc_env=desc_env,
    )


def _states_after(model, v):
    gpi_eval(model, np.arange(float(len(v))), v)
    return model.memory.states[0]


# ------------------------------------------------------- one play operator

def test_play_step_holds_inside_dead_zone():
    assert _states_after(classical_bank(1.0), [0.0, 0.5])[1] == 0.0


def test_play_step_tracks_past_backlash():
    assert _states_after(classical_bank(1.0), [0.0, 2.0])[1] == 1.0


def test_play_step_full_traversal_matches_bruteforce():
    # the demonstration tanh envelopes over the stock input, one sample
    # per call so every operator state can be read back
    asc = TanhEnvelope(c=8.0, d=0.2, e=-0.5, f=0.0)
    desc = TanhEnvelope(c=9.0, d=0.2, e=-0.1, f=0.0)
    model = classical_bank(0.25, asc, desc)
    traj = decaying_sinusoid()
    got = []
    for i in range(traj.v.size):
        gpi_eval(model, traj.t[i : i + 1], traj.v[i : i + 1], reset=(i == 0))
        got.append(model.memory.states[0].copy())
    got = np.array(got)
    for col, r in enumerate((0.0, 0.25)):
        expected = bruteforce.run_play(list(traj.v), asc.to_dict(), desc.to_dict(), 1.0, 1.0, r)
        assert np.max(np.abs(got[:, col] - np.array(expected))) < 1e-12


# ------------------------------------------------------------ initial state

def test_init_state_keeps_value_inside_band():
    assert np.array_equal(_states_after(classical_bank(1.0), [0.0]), [0.0, 0.0])


def test_init_state_clamps_to_band_top():
    # identity envelopes: the band at v0 is [v0 - r, v0 + r]
    assert np.array_equal(_states_after(classical_bank(1.0), [-3.0]), [-3.0, -2.0])
    assert np.array_equal(_states_after(classical_bank(1.0), [3.0]), [3.0, 2.0])


def test_init_state_demo_band_straddles_zero():
    model = reference_model().submodels[0]
    v0 = 8.0 * np.sin(np.pi / 4)
    r = model.density.thresholds()[-1]
    assert r == 7.25
    lo = model.asc_env(v0) - model.kappa_asc * r
    hi = model.desc_env(v0) + model.kappa_desc * r
    assert lo < 0.0 < hi
    assert _states_after(model, [v0])[-1] == 0.0


def test_init_state_warns_on_empty_band():
    # r = 0: band [2, 0.5] is empty, state stays at 0; r = 1: [1, 1.5], clamped
    model = classical_bank(1.0, LinearEnvelope(a=1.0, b=2.0), LinearEnvelope(a=1.0, b=0.5))
    with pytest.warns(RuntimeWarning, match="empty play band"):
        states = _states_after(model, [0.0])
    assert np.array_equal(states, [0.0, 1.0])


@pytest.mark.filterwarnings("ignore:empty play band")
@pytest.mark.parametrize("call", ["predict", "gpi_eval", "egpi_eval", "residuals", "jacobian"])
def test_empty_band_warning_names_the_callers_line(call):
    # bank 2 of the recovery-seed-0 model has crossed envelopes at v0; the
    # warning names the line below that called the package, whichever
    # internal path (forward or tangent pass) initialized the bank
    traj, _, params = recovery_dataset(0)
    model = _recovery_model()
    calls = {
        "predict": lambda: predict(model, traj.t, traj.v),
        "gpi_eval": lambda: gpi_eval(model.submodels[1], traj.t, traj.v),
        "egpi_eval": lambda: egpi_eval(model, traj.t, traj.v),
        "residuals": lambda: residuals(params, traj, SWEEP_FLAG),
        "jacobian": lambda: jacobian(params, traj, SWEEP_FLAG),
    }
    with pytest.warns(RuntimeWarning, match="empty play band") as record:
        calls[call]()
    assert [w.filename for w in record] == [__file__]


# ------------------------------------------------------------------ density

def test_thresholds_demo_grid():
    d = DensitySpec(lam=0.07, sigma=0.1, r1=0.25, rn=7.25, n=30)
    rr = d.thresholds()
    assert rr.size == 31
    assert rr[0] == 0.0
    assert rr[1] == 0.25
    assert rr[-1] == 7.25
    assert np.allclose(np.diff(rr[1:]), (7.25 - 0.25) / 29)


def test_thresholds_single_operator():
    assert np.array_equal(
        DensitySpec(lam=1.0, sigma=0.0, r1=2.0, rn=99.0, n=1).thresholds(), [0.0, 2.0]
    )


def test_thresholds_hand_computed():
    assert np.allclose(
        DensitySpec(lam=1.0, sigma=0.0, r1=1.0, rn=3.0, n=3).thresholds(), [0, 1, 2, 3]
    )


@pytest.mark.parametrize("r1, rn", [(0.25, 7.25), (2.0, 2.0), (1e-6, 1e-6), (0.1, 2.5),
                                     (3e300, 1.7e308), (1e-300, 1e300), (5e-324, 1e-323)])
@pytest.mark.parametrize("n", [1, 2, 3, 30])
def test_grid_has_the_bits_of_linspace(r1, rn, n):
    # the grid takes linspace's float ops without its Python wrapper: r1 ==
    # rn and the subnormal step (5e-324 over 29 intervals underflows to 0)
    # take its zero-step branch, large magnitudes its plain one
    r, p = _grid(0.07, 0.1, r1, rn, n)
    want = np.concatenate(([0.0], np.linspace(r1, rn, n)))
    assert r.tobytes() == want.tobytes()
    assert p.tobytes() == (0.07 * np.exp(-0.1 * want)).tobytes()
    assert not r.flags.writeable and not p.flags.writeable


def test_weights_values():
    d = DensitySpec(lam=0.07, sigma=0.1, r1=0.25, rn=7.25, n=30)
    w = d.weights()
    assert w[0] == pytest.approx(0.07, abs=1e-15)
    assert w[-1] == pytest.approx(0.07 * np.exp(-0.1 * 7.25), abs=1e-15)
    assert np.all(w > 0)


def test_weights_flat_when_sigma_zero():
    w = DensitySpec(lam=0.3, sigma=0.0, r1=0.5, rn=2.0, n=4).weights()
    assert np.allclose(w, 0.3)


def test_density_validation():
    with pytest.raises(ConfigError):
        DensitySpec(lam=0.0, sigma=0.1, r1=0.1, rn=1.0, n=3)
    with pytest.raises(ConfigError):
        DensitySpec(lam=0.1, sigma=-0.1, r1=0.1, rn=1.0, n=3)
    with pytest.raises(ConfigError):
        DensitySpec(lam=0.1, sigma=0.1, r1=0.0, rn=1.0, n=3)
    with pytest.raises(ConfigError):
        DensitySpec(lam=0.1, sigma=0.1, r1=2.0, rn=1.0, n=3)
    with pytest.raises(ConfigError):
        DensitySpec(lam=0.1, sigma=0.1, r1=0.1, rn=1.0, n=0)
    # non-finite values, NaN included, fail too
    for name in ("lam", "sigma", "r1", "rn"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                DensitySpec(**{"lam": 0.1, "sigma": 0.1, "r1": 0.1, "rn": 1.0, "n": 3, name: bad})


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
def test_density_count_must_be_an_integer(n):
    # a float or bool count used to pass, and fail later in np.linspace
    # or stand for 1
    with pytest.raises(ConfigError, match="threshold count n must be an integer"):
        DensitySpec(lam=0.1, sigma=0.1, r1=0.1, rn=1.0, n=n)


def test_density_count_accepts_numpy_integers():
    d = DensitySpec(lam=0.1, sigma=0.1, r1=0.1, rn=1.0, n=np.int64(3))
    assert np.array_equal(d.thresholds(), [0.0, 0.1, 0.55, 1.0])


@pytest.mark.parametrize("kappas", [(np.nan, 1.0), (1.0, np.inf), (0.0, 1.0)])
def test_gpi_regulator_validation(kappas):
    density = DensitySpec(lam=0.2, sigma=0.0, r1=0.5, rn=1.5, n=2)
    with pytest.raises(ConfigError):
        GpiModel(density, IDENTITY, IDENTITY, *kappas)


def _valid_fields(cls):
    """Keyword arguments that ``cls`` accepts."""
    density = DensitySpec(lam=0.2, sigma=0.1, r1=0.5, rn=1.5, n=2)
    if cls is LinearEnvelope:
        return {"a": 1.0, "b": 0.0}
    if cls is TanhEnvelope:
        return {"c": 1.0, "d": 1.0, "e": 0.0, "f": 0.0}
    if cls is DensitySpec:
        return {"lam": 0.2, "sigma": 0.1, "r1": 0.5, "rn": 1.5, "n": 2}
    if cls is GpiModel:
        return {"density": density, "asc_env": IDENTITY, "desc_env": IDENTITY,
                "kappa_asc": 1.0, "kappa_desc": 1.0}
    banks = [GpiModel(density, IDENTITY, IDENTITY) for _ in range(2)]
    return {"submodels": banks, "flag_asc": 1.0, "flag_desc": 0.0}


# (constructor, field, how the error names the field)
NUMERIC_FIELDS = [
    *((LinearEnvelope, k, repr(k)) for k in "ab"),
    *((TanhEnvelope, k, repr(k)) for k in "cdef"),
    *((DensitySpec, k, repr(k)) for k in ("lam", "sigma", "r1", "rn")),
    (DensitySpec, "n", "threshold count n"),
    *((GpiModel, k, repr(k)) for k in ("kappa_asc", "kappa_desc")),
    *((EgpiModel, k, repr(k)) for k in ("flag_asc", "flag_desc")),
]
FLOAT_FIELDS = [f for f in NUMERIC_FIELDS if f[:2] != (DensitySpec, "n")]


def _field_ids(fields):
    return [f"{cls.__name__}.{name}" for cls, name, _ in fields]


# every numeric field against each non-number, but a None flag_asc, which
# makes a descend-flag model
NON_NUMBERS = [pytest.param(cls, name, named, bad, id=f"{cls.__name__}.{name}-{label}")
               for cls, name, named in NUMERIC_FIELDS
               for label, bad in (("str", "1"), ("bool", True), ("None", None))
               if (cls, name, bad) != (EgpiModel, "flag_asc", None)]


@pytest.mark.parametrize("cls,name,named,bad", NON_NUMBERS)
def test_constructors_reject_non_numbers(cls, name, named, bad):
    # a str used to end in a bare TypeError, and a bool was taken as 0 or 1
    cls(**_valid_fields(cls))  # the unchanged fields pass
    with pytest.raises(ConfigError) as info:
        cls(**{**_valid_fields(cls), name: bad})
    assert named in str(info.value)


@pytest.mark.parametrize("cls,name,named", FLOAT_FIELDS, ids=_field_ids(FLOAT_FIELDS))
def test_constructors_reject_ints_too_large_for_a_float(cls, name, named):
    # 10**400 from a model file used to end in an OverflowError traceback
    with pytest.raises(ConfigError, match="finite number") as info:
        cls(**{**_valid_fields(cls), name: 10**400})
    assert named in str(info.value)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_a_switched_model_needs_exactly_two_banks(count):
    bank = reference_model().submodels[0]
    with pytest.raises(ConfigError, match=f"exactly two submodels required, got {count}"):
        EgpiModel([bank] * count, flag_desc=0.0)


# ----------------------------------------------------------------- gpi_eval

def test_gpi_single_operator_reduction():
    # lam=1, sigma=0 bank reduces to the zero-backlash tracker plus one
    # classical play of width r1
    model = GpiModel(
        density=DensitySpec(lam=1.0, sigma=0.0, r1=0.5, rn=0.5, n=1),
        asc_env=IDENTITY,
        desc_env=IDENTITY,
    )
    rng = np.random.default_rng(0)
    v = np.concatenate([[0.0], rng.uniform(-2, 2, 60)])
    t = 0.1 * np.arange(v.size)
    y = gpi_eval(model, t, v)
    play = bruteforce.run_play(list(v), IDENTITY.to_dict(), IDENTITY.to_dict(), 1.0, 1.0, 0.5)
    assert np.max(np.abs(y - (v + np.array(play)))) < 1e-12


def test_gpi_eval_rejects_switched_model_before_running_a_bank():
    # it used to run both banks, overwrite their states, then fail to unpack
    model = reference_model()
    t, v = _demo_input()
    with pytest.raises(ConfigError, match="GpiModel"):
        gpi_eval(model, t, v)
    assert all(m.memory is None for m in [model, *model.submodels])


def test_gpi_constant_input_keeps_initial_output():
    model = reference_model().submodels[0]
    t = np.arange(5.0)
    v = np.full(5, 3.0)
    y = gpi_eval(model, t, v)
    assert np.all(y == y[0])
    expected = model.density.weights() @ np.clip(
        0.0,
        model.asc_env(3.0) - model.kappa_asc * model.density.thresholds(),
        model.desc_env(3.0) + model.kappa_desc * model.density.thresholds(),
    )
    assert y[0] == pytest.approx(expected, abs=1e-12)


def test_gpi_eval_validates_input():
    model = reference_model().submodels[0]
    with pytest.raises(InputError):
        gpi_eval(model, [], [])
    with pytest.raises(InputError):
        gpi_eval(model, [0.0, 0.0], [1.0, 2.0])
    with pytest.raises(InputError):
        gpi_eval(model, [0.0, 1.0], [1.0, np.nan])


def test_gpi_streaming_continuation_matches_batch():
    v = decaying_sinusoid(t_end=2.0).v
    t = decaying_sinusoid(t_end=2.0).t
    whole = reference_model().submodels[0]
    split = reference_model().submodels[0]
    y_all = gpi_eval(whole, t, v)
    cut = 700
    y_a = gpi_eval(split, t[:cut], v[:cut])
    y_b = gpi_eval(split, t[cut:], v[cut:], reset=False)
    assert np.array_equal(np.concatenate([y_a, y_b]), y_all)
    assert np.array_equal(split.memory.states[0], whole.memory.states[0])


def _dither_input(n=3000, seed=0):
    """Quantized dither around a slow ramp: many short runs and exact
    repeats, plus a 100-sample plateau at samples 1000..1099."""
    rng = np.random.default_rng(seed)
    ramp = np.linspace(-6.0, 6.0, n) + rng.normal(0.0, 0.05, n)
    v = np.round(ramp / 0.02) * 0.02
    v[1000:1100] = v[999]
    return 1e-3 * np.arange(n), v


def _dither_then_rise():
    """The first 470 samples of the dither input, whose runs are all
    shorter than _LONG and whose last step is a hold, then a 100-sample
    rise to 10: a long run whose first 42 samples lie in the first 512."""
    v = _dither_input()[1][:470]
    v = np.concatenate([v, np.linspace(v[-1], 10.0, 101)[1:]])
    return 1e-3 * np.arange(v.size), v


def _oracle_mode(model):
    """The oracle's switching rule of ``model``: descend-flag without ``flag_asc``."""
    return "descend_flag" if model.flag_asc is None else "two_flag"


def _descend_flag_model(desc1=LinearEnvelope(a=3.2, b=5.0), desc2=LinearEnvelope(a=2.1, b=0.2),
                        flag=1.0):
    density = DensitySpec(lam=0.06, sigma=0.15, r1=0.25, rn=2.2, n=30)
    asc = LinearEnvelope(a=3.1, b=0.8)
    sub1 = GpiModel(density=density, asc_env=asc, desc_env=desc1)
    sub2 = GpiModel(density=density, asc_env=asc, desc_env=desc2, kappa_desc=3.0)
    return EgpiModel(submodels=[sub1, sub2], flag_desc=flag)


def _second_reference_bank():
    return reference_model().submodels[1]


@pytest.mark.filterwarnings("ignore:empty play band")
@pytest.mark.parametrize("make_model", [reference_model, _descend_flag_model,
                                        _second_reference_bank])
@pytest.mark.parametrize("signal", ["reference", "dither", "dither-rise"])
def test_egpi_streaming_random_chunks_match_one_shot(make_model, signal):
    # seeded random splits; each includes 1-sample chunks, and on the
    # dither input one chunk that lies inside the plateau (all holds).
    # The split changes no bit of the output or of the final states, for
    # the model (switched, or one bank that always reports itself) and
    # for its first bank alone.
    if signal == "reference":
        t, v = _demo_input(t_end=10.0)
    elif signal == "dither":
        t, v = _dither_input()
    else:
        t, v = _dither_then_rise()
    whole, whole_bank = make_model(), _banks(make_model())[0]
    z_all, active_all = egpi_eval(whole, t, v)
    if isinstance(whole, GpiModel):
        assert np.all(active_all == 1)
    y_all = gpi_eval(whole_bank, t, v)
    rng = np.random.default_rng(7)
    for _ in range(10):
        cuts = set(rng.choice(np.arange(1, v.size), size=int(rng.integers(1, 40)), replace=False))
        for c in rng.choice(np.arange(1, v.size - 1), size=3, replace=False):
            cuts |= {int(c), int(c) + 1}
        if signal == "dither":
            cuts |= {1010, 1090}
        bounds = [0, *sorted(cuts), v.size]
        model, bank = make_model(), _banks(make_model())[0]
        parts = [
            egpi_eval(model, t[a:b], v[a:b], reset=(a == 0))
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        y = [gpi_eval(bank, t[a:b], v[a:b], reset=(a == 0)) for a, b in zip(bounds, bounds[1:])]
        z = np.concatenate([part[0] for part in parts])
        active = np.concatenate([part[1] for part in parts])
        assert np.array_equal(z, z_all)
        assert np.array_equal(active, active_all)
        assert np.array_equal(np.concatenate(y), y_all)
        for got, want in zip([model, bank], [whole, whole_bank]):
            for mine, theirs in zip(got.memory.states, want.memory.states):
                assert np.array_equal(mine, theirs)


def _recovery_model():
    """The linear descend-flag model of recovery seed 0 (flag 6)."""
    return build_model(recovery_params(0), "egpi", SWEEP_FLAG)


def _recovery_sweep():
    sweep = sweep_input()
    return sweep.t, sweep.v


def _short_tail_sweep():
    traj = short_tail_input()
    return traj.t, traj.v


def _long_sinusoid():
    """The stock input at 200,001 samples: the flags fall mid-run, inside
    runs of thousands of samples, each one walk entry."""
    traj = decaying_sinusoid(t_end=20.0, dt=1e-4)
    return traj.t, traj.v


def _triangle():
    """Rises and falls of 300 samples between 0 and 10: each run is a
    walk entry of its own, and each fall crosses the flag, so a bank's
    entry can end a run on a sample it does not report."""
    v = np.concatenate([np.linspace(0.0, 10.0, 300, endpoint=False),
                        np.linspace(10.0, 0.0, 300, endpoint=False)] * 3)
    return 1e-3 * np.arange(v.size), v


def _saturated_reference_model():
    """The reference model with tanh slope d = 5: on the stock input the
    envelopes saturate, so many consecutive samples share one target."""
    model = reference_model()
    for bank in model.submodels:
        bank.asc_env = replace(bank.asc_env, d=5.0)
        bank.desc_env = replace(bank.desc_env, d=5.0)
    return model


def _crossed_descend_flag_model():
    """Descend-flag banks whose descending envelopes cross the ascending
    one near v = 1.5: below that the play band of the narrow operators is
    empty, at v0 = 0 too."""
    return _descend_flag_model(LinearEnvelope(a=3.5, b=0.2), LinearEnvelope(a=4.0, b=-0.5),
                               SWEEP_FLAG)


REPORTED_CASES = {
    "reference-sinusoid": (reference_model, _long_sinusoid),
    "reference-dither": (reference_model, _dither_input),
    "descend-flag-sweep": (_recovery_model, _recovery_sweep),
    "descend-flag-triangle": (_recovery_model, _triangle),
    "descend-flag-short-tail": (_recovery_model, _short_tail_sweep),
    "descend-flag-dither-rise": (_recovery_model, _dither_then_rise),
    "saturated-tanh-sinusoid": (_saturated_reference_model, _long_sinusoid),
    "crossed-envelopes-sweep": (_crossed_descend_flag_model, _recovery_sweep),
}


@pytest.mark.filterwarnings("ignore:empty play band")
@pytest.mark.parametrize("make_model,make_input", REPORTED_CASES.values(), ids=REPORTED_CASES)
def test_reported_samples_only_keeps_every_bit(make_model, make_input):
    # predict and egpi_eval evaluate each bank only where it is reported;
    # the output and the final bank states keep the bits of each bank
    # evaluated alone over every sample; predict stores no memory
    t, v = make_input()
    _, active_full, z1, z2 = egpi_outputs(make_model(), t, v)
    want = np.where(active_full == 2, z2, z1)
    alone = []
    for bank in make_model().submodels:
        gpi_eval(bank, t, v)
        alone.append(bank.memory)
    partial = make_model()
    assert np.array_equal(predict(partial, t, v), want)
    streamed = make_model()
    z, active = egpi_eval(streamed, t, v)
    assert np.array_equal(z, want)
    assert np.array_equal(active, active_full)
    assert partial.memory is None
    for got, ref in zip(streamed.memory.states, alone):
        assert np.array_equal(got, ref.states[0])
    assert streamed.memory.last_input == alone[0].last_input


@pytest.mark.filterwarnings("ignore:empty play band")
@pytest.mark.parametrize("make_model", [reference_model, _recovery_model],
                         ids=["reference", "descend-flag"])
def test_fresh_evaluations_leave_a_stepped_models_memory(make_model):
    # predict, egpi_outputs and gen_synthetic evaluate afresh between two
    # steps of a stream, which goes on with the bits of one call
    t, v = _dither_input()
    model = make_model()
    z_a, _ = egpi_eval(model, t[:100], v[:100])
    memory = model.memory
    predict(model, t[100:], v[100:])
    egpi_outputs(model, t[100:], v[100:])
    gen_synthetic(model, Trajectory(t=t[100:], v=v[100:]))
    assert model.memory is memory
    z_b, _ = egpi_eval(model, t[100:200], v[100:200], reset=False)
    whole = make_model()
    assert np.array_equal(np.concatenate([z_a, z_b]), egpi_eval(whole, t[:200], v[:200])[0])


# offsets from a long run's first sample at which the other bank takes
# over: the first sample, inside the first _LONG, at _LONG, past it, and
# the run's last sample (runs of 300 samples)
SWITCH_OFFSETS = (0, 10, _LONG, 200, 299)


def _switching_runs(flag_desc, flag_asc=None, delta=0.01, size=300):
    """Long runs whose samples change bank at each of ``SWITCH_OFFSETS``.

    Each falling run steps by ``delta`` onto ``flag_desc`` exactly at its
    offset, and with ``flag_asc`` each rising run onto ``flag_asc`` too;
    the runs between them close the gaps. Last comes a rise that ends
    exactly on ``flag_desc``, a hold there, where the non-ascending rule
    switches, and a fall. Returns ``(t, v, starts)``, ``starts`` the first
    sample and switch offset of each crossing run.
    """
    v, starts = [flag_desc - 3.0], []

    def onto(level):
        # a run from the last sample to ``level``, which it ends on exactly
        steps = max(int(np.ceil(abs(level - v[-1]) / delta)), 1)
        v.extend(np.linspace(v[-1], level, steps + 1)[1:])

    for q in SWITCH_OFFSETS:
        # each crossing run turns back from the one before it
        peak = flag_desc + (q + 1) * delta
        onto(min(v[-1], peak) - 1.0)
        onto(peak)
        starts.append((len(v), q))
        v.extend(flag_desc + (q - np.arange(size)) * delta)
        if flag_asc is not None:
            trough = flag_asc - (q + 1) * delta
            onto(max(v[-1], trough) + 1.0)
            onto(trough)
            starts.append((len(v), q))
            v.extend(flag_asc + (np.arange(size) - q) * delta)
    onto(min(v[-1], flag_desc) - 1.0)
    onto(flag_desc)
    starts.append((len(v), 0))
    v.extend([flag_desc] * 100 + list(flag_desc - delta * np.arange(1, size + 1)))
    return 1e-3 * np.arange(len(v)), np.array(v), starts


SWITCHING_CASES = {
    "descend-flag-linear": (_recovery_model, lambda: _switching_runs(SWEEP_FLAG)),
    "two-flag-tanh": (reference_model, lambda: _switching_runs(-0.3, flag_asc=1.5)),
}


@pytest.mark.filterwarnings("ignore:empty play band")
@pytest.mark.parametrize("make_model,make_input", SWITCHING_CASES.values(), ids=SWITCHING_CASES)
def test_banks_switching_inside_long_runs(make_model, make_input):
    # a run entry computes only the samples each bank reports there, from
    # that bank's own rows: its first _LONG samples summed, the rest in
    # closed form. Every sample matches the oracle and keeps the bits of
    # its bank evaluated alone
    t, v, starts = make_input()
    model = make_model()
    d = _directions(v)
    use2 = _reports_second(model, v, d)
    for start, q in starts:
        run = slice(start, start + int(np.argmax(d[start:] != d[start])))
        assert run.stop - run.start >= 100
        assert np.argmax(use2[run]) == q and use2[run][q:].all()
    # and some long run's samples all come from bank 1 (q = 0: all from bank 2)
    assert any(j - i >= _LONG and not use2[i:j].any() for i, j, _ in _plan(t, v).walk)
    z, active = egpi_eval(model, t, v)
    sub1, sub2 = (oracle_kwargs(sub) for sub in model.submodels)
    zb, ab = bruteforce.run_egpi(list(v), sub1, sub2, _oracle_mode(model),
                                 flag_asc=model.flag_asc, flag_desc=model.flag_desc)
    assert np.max(np.abs(z - np.array(zb))) < 1e-12
    assert np.array_equal(active, np.array(ab))
    for k, bank in enumerate(make_model().submodels):
        mine = active == k + 1
        assert np.array_equal(z[mine], gpi_eval(bank, t, v)[mine])


@pytest.mark.filterwarnings("ignore:empty play band")
def test_fit_functions_on_banks_switching_inside_long_runs():
    # the fit's residuals keep the bits of its model's evaluation, and its
    # exact Jacobian matches central differences at the bounds of
    # test_tangent_jacobian_matches_central_differences (AC-6)
    t, v, _ = _switching_runs(SWEEP_FLAG)
    params = recovery_params(0)
    data = gen_synthetic(build_model(params, "egpi", SWEEP_FLAG), Trajectory(t=t, v=v), 0.1,
                         seed=31)
    for mode, p in (("egpi", params), ("gpi", params[[0, 1, 2, 3, 6, 7, 8, 9]])):
        want = predict(build_model(p, mode, SWEEP_FLAG), t, v) - data.theta
        assert np.array_equal(residuals(p, data, SWEEP_FLAG, mode), want)
        J = jacobian(p, data, SWEEP_FLAG, mode)
        J6 = jacobian_fd(p, data, SWEEP_FLAG, mode, rel_step=1e-6)
        J7 = jacobian_fd(p, data, SWEEP_FLAG, mode, rel_step=1e-7)
        tol = 1e-6 * np.max(np.abs(J6), axis=0)
        smooth = np.all(np.abs(J6 - J7) <= tol, axis=1)
        assert np.count_nonzero(~smooth) < 0.01 * smooth.size
        assert np.all(np.abs(J - J6)[smooth] <= tol)


OUTPUTS_CASES = {
    "reference-sinusoid": (reference_model, _long_sinusoid),
    "gpi-dither": (_second_reference_bank, _dither_input),
    "narrow-mid-dither": (lambda: unequal_banks_model("narrow-mid"), _dither_input),
}


@pytest.mark.filterwarnings("ignore:empty play band")
@pytest.mark.parametrize("make_model,make_input", OUTPUTS_CASES.values(), ids=OUTPUTS_CASES)
def test_egpi_outputs_are_the_banks_alone_and_leave_the_memory(make_model, make_input):
    t, v = make_input()
    model = make_model()
    egpi_eval(model, t[:100], v[:100])
    before = model.memory
    z, active, z1, z2 = egpi_outputs(model, t, v)
    assert model.memory is before
    banks = _banks(make_model())
    assert np.array_equal(z1, gpi_eval(banks[0], t, v))
    assert np.array_equal(z2, gpi_eval(banks[-1], t, v))
    want, want_active = egpi_eval(make_model(), t, v)
    assert np.array_equal(z, want)
    assert np.array_equal(active, want_active)


@pytest.mark.filterwarnings("ignore:empty play band")
def test_streaming_cuts_inside_unreported_stretches():
    # on the recovery sweep bank 2 reports nothing of the rise and bank 1
    # nothing of the last descent; the chunks cut both stretches, and one
    # cut falls exactly on the run edge where the rise turns into the fall
    t, v = _recovery_sweep()
    fall = int(np.argmax(_directions(v) < 0))
    assert v[fall] < v[fall - 1]  # the first falling sample
    whole = _recovery_model()
    z_all, active_all = egpi_eval(whole, t, v)
    bounds = [0, 700, 1900, fall, 3000, 4300, 4301, v.size]
    model = _recovery_model()
    parts = [egpi_eval(model, t[a:b], v[a:b], reset=(a == 0))
             for a, b in zip(bounds[:-1], bounds[1:])]
    assert np.array_equal(np.concatenate([z for z, _ in parts]), z_all)
    assert np.array_equal(np.concatenate([a for _, a in parts]), active_all)
    for got, want in zip(model.memory.states, whole.memory.states):
        assert np.array_equal(got, want)
    assert model.memory.last_input == whole.memory.last_input


@pytest.mark.filterwarnings("ignore:empty play band")
@pytest.mark.parametrize("change, error", [
    (lambda banks: banks.append(banks[0]), AttributeError),
    (lambda banks: banks.pop(), AttributeError),
    (lambda banks: operator.setitem(banks, 1, banks[0]), TypeError),
])
def test_a_switched_model_keeps_its_two_banks(change, error):
    # the banks were a list: with a third appended egpi_eval read unset
    # rows (values up to 2.5e296), with one popped it was up to 9.7 deg off
    t, v = _recovery_sweep()
    model = _recovery_model()
    with pytest.raises(error):
        change(model.submodels)
    assert len(model.submodels) == 2
    assert np.array_equal(egpi_eval(model, t, v)[0], predict(_recovery_model(), t, v))


@pytest.mark.filterwarnings("ignore:empty play band")
def test_submodel_stepped_alone_keeps_its_own_memory():
    # stepping bank 1 through gpi_eval between two calls of its switched
    # model used to overwrite the bank memory that the model's next
    # reset=False call continued from (22 deg off on this input)
    A, X, B = np.linspace(0.0, 9.0, 100), np.linspace(9.0, 2.0, 100), np.linspace(2.0, 4.0, 100)
    t = 1e-3 * np.arange(A.size + B.size)
    model = _recovery_model()
    z_a, _ = egpi_eval(model, t[:A.size], A)
    gpi_eval(model.submodels[0], t[:X.size], X, reset=False)
    z_b, _ = egpi_eval(model, t[A.size:], B, reset=False)
    z_all, _ = egpi_eval(_recovery_model(), t, np.concatenate([A, B]))
    assert np.array_equal(np.concatenate([z_a, z_b]), z_all)


@pytest.mark.filterwarnings("ignore:empty play band")
def test_one_bank_may_fill_both_slots():
    # the memory is the model's, so a shared bank needs no copy
    t, v = _dither_input()
    bank = _recovery_model().submodels[0]
    shared = EgpiModel([bank, bank], flag_desc=SWEEP_FLAG)
    copies = EgpiModel([bank, replace(bank)], flag_desc=SWEEP_FLAG)
    assert np.array_equal(predict(shared, t, v), predict(copies, t, v))


@pytest.mark.filterwarnings("ignore:empty play band")
def test_evaluation_that_raises_leaves_the_memory_unchanged():
    # bank 2's envelope fails after bank 1 has run over the new input
    t, v = _recovery_sweep()
    model = _recovery_model()
    egpi_eval(model, t[:1000], v[:1000])
    memory = model.memory

    def failing(x):
        raise RuntimeError("envelope failed")

    model.submodels[1].asc_env = failing
    with pytest.raises(RuntimeError, match="envelope failed"):
        egpi_eval(model, t[1000:], v[1000:], reset=False)
    assert model.memory is memory
    with pytest.raises(InputError):
        egpi_eval(model, [0.0, 1.0], [0.0, np.nan], reset=False)
    assert model.memory is memory


@pytest.mark.filterwarnings("ignore:empty play band")
def test_a_plan_holds_the_memory_it_continues():
    t, v = _recovery_sweep()
    model = _recovery_model()
    z, _, memory = _evaluate(model, _plan(t[:1000], v[:1000]))
    assert np.array_equal(z, predict(_recovery_model(), t[:1000], v[:1000]))
    onward = _plan(t[1000:], v[1000:], memory)
    assert onward.lead  # the banks start from their run-entering states
    z, _, after = _evaluate(model, onward)
    public = _recovery_model()
    egpi_eval(public, t[:1000], v[:1000])
    assert np.array_equal(z, egpi_eval(public, t[1000:], v[1000:], reset=False)[0])
    for f in fields(after):
        assert np.array_equal(getattr(after, f.name), getattr(public.memory, f.name))


@pytest.mark.filterwarnings("ignore:empty play band")
@pytest.mark.parametrize("make_input", [_recovery_sweep, _short_tail_sweep])
def test_one_fresh_plan_serves_every_model(make_input):
    # the plan holds only what the input decides; each model brings its
    # banks and its switching, so one plan gives the bits of each public
    # call, which plans for itself, and of a fit's own layout of the banks
    t, v = make_input()
    model, plan = _recovery_model(), _plan(t, v)
    for k, bank in enumerate(model.submodels):
        z, use2, _ = _evaluate(bank, plan)
        assert np.array_equal(z, gpi_eval(_recovery_model().submodels[k], t, v))
        assert not use2.any()
    z, use2, _ = _evaluate(model, plan)
    want, active = egpi_eval(_recovery_model(), t, v)
    assert np.array_equal(z, want)
    assert np.array_equal(np.where(use2, 2, 1), active)
    params, traj = recovery_params(0), Trajectory(t=t, v=v, theta=np.zeros(v.size))
    for mode, p, target in (("egpi", params, model),
                            ("gpi", params[[0, 1, 2, 3, 6, 7, 8, 9]], model.submodels[0])):
        fit_residuals, fit_jacobian, _ = _fit_pair(traj, p, SWEEP_FLAG, mode, 30)
        assert np.array_equal(fit_residuals(p), _evaluate(target, plan)[0])
        assert np.array_equal(fit_jacobian(p), jacobian(p, traj, SWEEP_FLAG, mode))
    assert model.memory is None and model.submodels[0].memory is None


@pytest.mark.filterwarnings("ignore:empty play band")
def test_a_memory_of_other_operator_counts_raises_and_is_kept():
    # before, a bank whose operator count changed after a call raised
    # numpy's broadcast ValueError on the next reset=False call
    t, v = _recovery_sweep()
    model = _recovery_model()
    egpi_eval(model, t[:1000], v[:1000])
    memory = model.memory
    bank = model.submodels[1]
    bank.density = replace(bank.density, n=bank.density.n - 1)
    message = r"memory holds banks of \(31, 31\) operators, the model has \(31, 30\)"
    with pytest.raises(ConfigError, match=message):
        egpi_eval(model, t[1000:], v[1000:], reset=False)
    assert model.memory is memory
    gpi_eval(bank, t[:1000], v[:1000])
    memory = bank.memory
    bank.density = replace(bank.density, n=bank.density.n + 1)
    with pytest.raises(ConfigError, match="memory holds"):
        gpi_eval(bank, t[1000:], v[1000:], reset=False)
    assert bank.memory is memory


@pytest.mark.filterwarnings("ignore:empty play band")
def test_a_memory_of_another_bank_count_raises_and_is_kept():
    # a switched model raised IndexError on a lone bank's memory once bank
    # 1 had run; a lone bank went on from bank 1 of a switched model's
    # memory
    t, v = _recovery_sweep()
    model, lone = _recovery_model(), _recovery_model().submodels[0]
    egpi_eval(model, t, v)
    gpi_eval(lone, t, v)
    two, one = model.memory, lone.memory
    model.memory, lone.memory = one, two
    for call, target in ((egpi_eval, model), (egpi_eval, lone), (gpi_eval, lone)):
        with pytest.raises(ConfigError, match="memory holds"):
            call(target, t[:10], v[:10], reset=False)
    assert model.memory is one and lone.memory is two


def _rise_hold_fall():
    """A 300-sample rise from -2 to 6, a 20-sample hold, and a 300-sample
    fall to -2: two long runs, the fall right after a hold. Returns the
    input and the index of each run's first sample."""
    v = np.concatenate([np.linspace(-2.0, 6.0, 301), np.full(20, 6.0),
                        np.linspace(6.0, -2.0, 301)[1:]])
    return 1e-3 * np.arange(v.size), v, 1, 321


def _memory(model):
    """Every value in the model's memory, each per-bank tuple flattened."""
    values = [getattr(model.memory, f.name) for f in fields(model.memory)]
    return [x for value in values for x in (value if isinstance(value, tuple) else [value])]


@pytest.mark.parametrize("make_model", [_descend_flag_model, reference_model])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_streaming_cuts_at_the_closed_form_boundary(make_model, shift):
    # each long run is cut where its sample _LONG + shift begins a call,
    # so the call before ends on the last sample summed by _contract, or
    # the first or second sample of the closed form. One call holds the
    # rise's last 10 samples and the hold, and the next begins right after
    # the hold. Chunked evaluation keeps every bit of the output and of
    # every field the banks store.
    t, v, rise, fall = _rise_hold_fall()
    d = _directions(v)
    assert np.all(d[rise:fall - 20] > 0) and np.all(d[fall - 20:fall] == 0)
    assert np.all(d[fall:] < 0)
    cuts = [rise + _LONG + shift, fall - 30, fall, fall + _LONG + shift]
    bounds = [0, *cuts, v.size]
    whole, whole_bank = make_model(), _banks(make_model())[0]
    z_all, active_all = egpi_eval(whole, t, v)
    y_all = gpi_eval(whole_bank, t, v)
    model, bank = make_model(), _banks(make_model())[0]
    parts = [egpi_eval(model, t[a:b], v[a:b], reset=(a == 0)) for a, b in zip(bounds, bounds[1:])]
    y = [gpi_eval(bank, t[a:b], v[a:b], reset=(a == 0)) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate([z for z, _ in parts]), z_all)
    assert np.array_equal(np.concatenate([a for _, a in parts]), active_all)
    assert np.array_equal(np.concatenate(y), y_all)
    for got, want in zip([model, bank], [whole, whole_bank]):
        for mine, theirs in zip(_memory(got), _memory(want)):
            assert np.array_equal(mine, theirs)


def _runs(d, lead=0):
    """``(a, b, size)`` of each run of constant direction in ``d``, found
    sample by sample; the first run's size counts ``lead``."""
    runs, a = [], 0
    for k in range(1, d.size + 1):
        if k == d.size or d[k] != d[k - 1]:
            runs.append((a, k, k - a + (lead if a == 0 else 0)))
            a = k
    return runs


def _check_layout(d, entries, lead):
    """The entries tile ``d``; each begins a run, and ``starts`` holds the
    run edges inside it; each run of _LONG or more samples is one entry,
    and every other entry spans at most _BLOCK + _LONG - 2 samples."""
    runs = _runs(d, lead)
    assert entries[0][0] == 0 and entries[-1][1] == d.size
    for (_, j, _), (i, _, _) in zip(entries, entries[1:]):
        assert i == j
    run_starts = [a for a, _, _ in runs]
    long_runs = {(a, b) for a, b, size in runs if size >= _LONG}
    assert long_runs <= {(i, j) for i, j, _ in entries}
    for i, j, starts in entries:
        assert i in run_starts
        assert (i + starts).tolist() == [a for a in run_starts if i < a < j]
        if (i, j) not in long_runs:
            assert j - i <= _BLOCK + _LONG - 2
    return runs


@pytest.mark.parametrize("make_input", [_dither_input, _recovery_sweep, _dither_then_rise])
def test_block_layout_follows_the_cut_rule(make_input):
    # besides _check_layout: an entry begins exactly at each long run, at
    # the run after it, and at the first run that begins in each _BLOCK
    # samples, so no block edge falls inside a run
    _, v = make_input()
    d = _directions(v)
    entries, lead, _ = _blocks(d)
    runs = _check_layout(d, entries, lead)
    want = [a for k, (a, _, size) in enumerate(runs)
            if k == 0 or size >= _LONG or runs[k - 1][2] >= _LONG
            or a // _BLOCK != runs[k - 1][0] // _BLOCK]
    assert [i for i, _, _ in entries] == want


def test_block_layout_counts_the_lead_in_the_first_run():
    # a first run of 40 samples is its own entry when the 30 samples it
    # had before the call make it _LONG long, and shares a block with the
    # short runs after it when it had none or ran the other way
    d = np.concatenate((np.ones(40), np.tile([-1.0, 1.0], 50)))
    entries, lead, run = _blocks(d, 30)
    assert [(i, j, s.size) for i, j, s in entries] == [(0, 40, 0), (40, 140, 99)]
    assert (lead, run) == (30, 1)
    for other in (0, -30):
        entries, lead, run = _blocks(d, other)
        assert [(i, j, s.size) for i, j, s in entries] == [(0, 140, 100)]
        assert (lead, run) == (0, 1)
    # a call inside one run adds its samples to the run's, up to _LONG
    assert _blocks(-np.ones(10), -30)[1:] == (30, -40)
    assert _blocks(-np.ones(10), -60)[1:] == (60, -_LONG)
    assert _blocks(np.zeros(10), 30)[1:] == (0, 0)


def test_block_layout_property():
    # seeded random directions: runs of 1 to 700 samples, holds among
    # them, and dither, each continuing a random signed run length
    rng = np.random.default_rng(20)
    for _ in range(300):
        pieces = []
        for _ in range(int(rng.integers(1, 40))):
            kind = rng.integers(3)
            if kind == 0:  # one run, short or long
                pieces.append(np.full(int(rng.integers(1, 700)), float(rng.integers(-1, 2))))
            elif kind == 1:  # a hold
                pieces.append(np.zeros(int(rng.integers(1, 100))))
            else:  # dither: runs of a few samples
                pieces.append(rng.integers(-1, 2, size=int(rng.integers(1, 400))).astype(float))
        d = np.concatenate(pieces)
        run = int(rng.integers(-_LONG, _LONG + 1))
        entries, lead, got = _blocks(d, run)
        assert lead == (abs(run) if run and np.sign(run) == d[0] else 0)
        runs = _check_layout(d, entries, lead)
        assert got == int(d[-1]) * min(runs[-1][2], _LONG)


def test_gpi_states_reflect_final_sample():
    model = reference_model().submodels[0]
    t = np.arange(4.0)
    v = np.array([0.0, 2.0, 5.0, 1.0])
    gpi_eval(model, t, v)
    rr = model.density.thresholds()
    state = np.minimum(
        np.maximum(model.asc_env(5.0) - rr, _init_states(model, 0.0)),
        model.desc_env(1.0) + rr,
    )
    assert np.allclose(model.memory.states[0], state, atol=1e-12)


def _init_states(model, v0):
    rr = model.density.thresholds()
    lo = model.asc_env(v0) - model.kappa_asc * rr
    hi = model.desc_env(v0) + model.kappa_desc * rr
    return np.clip(0.0, lo, hi)


# ---------------------------------------------------------------- egpi_eval

def _demo_input(t_end=3.0):
    traj = decaying_sinusoid(t_end=t_end)
    return traj.t, traj.v


def test_egpi_identical_submodels_invisible_switching():
    t, v = _demo_input()
    sub = reference_model().submodels[0]

    def clone():
        return GpiModel(
            density=sub.density,
            asc_env=sub.asc_env,
            desc_env=sub.desc_env,
            kappa_asc=sub.kappa_asc,
            kappa_desc=sub.kappa_desc,
        )

    model = EgpiModel(submodels=[clone(), clone()], flag_asc=1.0, flag_desc=-1.0)
    z, _ = egpi_eval(model, t, v)
    assert np.array_equal(z, gpi_eval(clone(), t, v))


def test_egpi_matches_bruteforce_on_reference():
    model = reference_model()
    t, v = _demo_input(t_end=10.0)
    z, active = egpi_eval(model, t, v)
    zb, ab = bruteforce.run_egpi(
        list(v),
        oracle_kwargs(model.submodels[0]),
        oracle_kwargs(model.submodels[1]),
        "two_flag",
        flag_asc=model.flag_asc,
        flag_desc=model.flag_desc,
    )
    assert np.max(np.abs(z - np.array(zb))) < 1e-12
    assert np.array_equal(active, np.array(ab))


def test_egpi_ramp_switches_at_first_sample_past_flag():
    sub = reference_model()
    model = EgpiModel(
        submodels=[sub.submodels[0], sub.submodels[1]],
        flag_asc=1.5,
        flag_desc=-0.3,
    )
    v = np.linspace(0.0, 3.0, 61)  # crosses 1.5 exactly at sample 30
    t = np.arange(61.0)
    _, active = egpi_eval(model, t, v)
    first2 = int(np.argmax(active == 2))
    assert v[first2] >= 1.5 and v[first2 - 1] < 1.5
    assert active[0] == 1  # first sample treated as at rest -> descending rule
    assert np.all(active[first2:] == 2)


def test_egpi_descend_flag_rules():
    density = DensitySpec(lam=0.2, sigma=0.0, r1=0.5, rn=1.5, n=3)
    sub1 = GpiModel(density=density, asc_env=IDENTITY, desc_env=LinearEnvelope(a=1.0, b=1.0))
    sub2 = GpiModel(
        density=density,
        asc_env=IDENTITY,
        desc_env=LinearEnvelope(a=0.5, b=0.2),
        kappa_desc=3.0,
    )
    model = EgpiModel(submodels=[sub1, sub2], flag_desc=2.0)
    v = np.concatenate([np.linspace(0, 5, 26), np.linspace(5, 0, 26)[1:]])
    t = np.arange(v.size, dtype=float)
    _, active = egpi_eval(model, t, v)
    rising = np.concatenate([[False], np.diff(v) > 0])
    expected = np.where(~rising & (v <= 2.0), 2, 1)
    assert np.array_equal(active, expected)


def test_egpi_flag_consistency_enforced():
    density = DensitySpec(lam=0.2, sigma=0.0, r1=0.5, rn=1.5, n=2)

    def bank():
        return GpiModel(density=density, asc_env=IDENTITY, desc_env=IDENTITY)

    # flag_desc is required; a missing flag_asc makes a descend-flag model
    for flags in ({"flag_asc": 1.0}, {}):
        with pytest.raises(ConfigError, match="requires 'flag_desc'"):
            EgpiModel(submodels=[bank(), bank()], **flags)
    with pytest.raises(ConfigError, match="submodel 1 must be a GpiModel"):
        EgpiModel(submodels=[1, 2], flag_asc=1.0, flag_desc=0.0)
    for flags in ({"flag_desc": np.nan}, {"flag_desc": -np.inf}):
        with pytest.raises(ConfigError):
            EgpiModel(submodels=[bank(), bank()], **flags)
    for flags in ({"flag_asc": np.nan, "flag_desc": 0.0}, {"flag_asc": 1.0, "flag_desc": np.inf}):
        with pytest.raises(ConfigError):
            EgpiModel(submodels=[bank(), bank()], **flags)


def test_memory_persists_over_constant_suffix():
    # holds leave the states untouched, so the suffix output is constant
    # (its level may hop once where the hold rule reselects the submodel)
    model = reference_model()
    t, v = _demo_input()
    v2 = np.concatenate([v, np.full(50, v[-1])])
    t2 = np.concatenate([t, t[-1] + 0.001 * np.arange(1, 51)])
    z, _ = egpi_eval(model, t2, v2)
    assert np.ptp(z[v.size :]) == 0.0
    y = gpi_eval(reference_model().submodels[0], t2, v2)
    assert np.ptp(y[v.size :]) == 0.0
    assert y[v.size] == y[v.size - 1]


# ------------------------------------------------ reference dead-zone shape

def _episodes(z, v, t, lo, hi, thresh=1e-6):
    """Maximal runs with |dz| < thresh while |dv| > 1e-4, inside [lo, hi)."""
    flat = (np.abs(np.diff(z)) < thresh) & (np.abs(np.diff(v)) > 1e-4)
    eps, i = [], 0
    while i < flat.size:
        if flat[i] and lo <= t[i] and t[i + 1] < hi:
            j = i
            while j < flat.size and flat[j] and t[j + 1] < hi:
                j += 1
            eps.append((v[i], v[j], "asc" if v[j] > v[i] else "desc", j - i))
            i = j
        else:
            i += 1
    return eps


def test_reference_stagewise_dead_zones():
    """Strictly flat dead zones of the demonstration configuration.

    Over a settled full cycle the single banks each freeze once per
    reversal where their envelopes leave room (bank 1: descending only,
    its envelope pair crosses at large negative input; bank 2: both
    branches), and the switched output exposes two strictly flat stages
    per cycle, both on the descending branch. Near-flat (but not strictly
    flat) staging on the ascending branch is checked separately below.
    """
    model = reference_model()
    traj = decaying_sinusoid()
    z, _ = egpi_eval(model, traj.t, traj.v)
    m2 = reference_model()
    z1 = gpi_eval(m2.submodels[0], traj.t, traj.v)
    z2 = gpi_eval(m2.submodels[1], traj.t, traj.v)

    cycle = (1.62, 2.62)  # trough-to-trough, past the start-up transient
    eps_z1 = _episodes(z1, traj.v, traj.t, *cycle)
    assert [e[2] for e in eps_z1] == ["desc"]
    eps_z2 = _episodes(z2, traj.v, traj.t, *cycle)
    assert [e[2] for e in eps_z2] == ["asc", "desc"]
    eps_z = _episodes(z, traj.v, traj.t, *cycle)
    assert [e[2] for e in eps_z] == ["desc", "desc"]
    # stage one starts at the cycle peak, stage two at the descending flag
    assert eps_z[0][0] == pytest.approx(np.max(traj.v[1625:2625]), abs=1e-2)
    assert eps_z[1][0] == pytest.approx(-0.3, abs=0.06)


def test_reference_ascending_branch_stages_are_slow_not_flat():
    """The ascending branch shows staged crawl regions rather than exact holds."""
    model = reference_model()
    traj = decaying_sinusoid()
    z, _ = egpi_eval(model, traj.t, traj.v)
    sel = slice(1625, 2125)  # one full ascending branch, trough to peak
    dz = np.diff(z[sel])
    assert np.all(dz >= -1e-9)  # nondecreasing while input rises
    crawl = np.abs(dz) < 2e-3
    edges = np.flatnonzero(np.diff(np.concatenate(([0], crawl.astype(np.int8), [0]))))
    longest = int(np.max(edges[1::2] - edges[::2]))
    assert crawl[:40].all()  # post-reversal stage crawls from the very start
    assert longest >= 50  # and it persists long enough to read as a stage


def test_predict_dispatches_both_kinds():
    t, v = _demo_input()
    egpi = reference_model()
    z, _ = egpi_eval(reference_model(), t, v)
    assert np.array_equal(predict(egpi, t, v), z)
    gpi = reference_model().submodels[0]
    assert np.array_equal(
        predict(gpi, t, v), gpi_eval(reference_model().submodels[0], t, v)
    )


def test_rate_independence_exact():
    model_a = reference_model()
    model_b = reference_model()
    traj = decaying_sinusoid(t_end=2.0)
    t2 = np.cumsum(np.random.default_rng(5).uniform(0.1, 3.0, traj.t.size))
    za, _ = egpi_eval(model_a, traj.t, traj.v)
    zb, _ = egpi_eval(model_b, t2, traj.v)
    assert np.array_equal(za, zb)


# ------------------------------------------------------- degenerate inputs

@pytest.mark.parametrize("v0", [2.0, -1.0])
def test_single_sample_series(v0):
    # one sample: no direction, so the descending flag rule selects
    model = reference_model()
    sub1, sub2 = (oracle_kwargs(sub) for sub in model.submodels)
    zb, ab = bruteforce.run_egpi([v0, 0.5], sub1, sub2, "two_flag",
                                 flag_asc=model.flag_asc, flag_desc=model.flag_desc)
    z, active = egpi_eval(model, [0.0], [v0])
    assert z.shape == active.shape == (1,)
    assert abs(z[0] - zb[0]) < 1e-12 and active[0] == ab[0]
    assert predict(reference_model(), [0.0], [v0])[0] == z[0]
    y = gpi_eval(reference_model().submodels[1], [0.0], [v0])
    assert abs(y[0] - bruteforce.run_gpi([v0], **sub2)[0]) < 1e-12
    # a single-sample continuation steps from the stored last input
    z, active = egpi_eval(model, [1.0], [0.5], reset=False)
    assert abs(z[0] - zb[1]) < 1e-12 and active[0] == ab[1]


def test_saturated_tanh_matches_bruteforce():
    # d = 40: |tanh| rounds to exactly 1 wherever |v| > 0.5
    density = DensitySpec(lam=0.3, sigma=0.2, r1=0.1, rn=2.5, n=12)
    sub1 = GpiModel(density=density, asc_env=TanhEnvelope(c=3.0, d=40.0, e=0.0, f=-1.0),
                    desc_env=TanhEnvelope(c=3.0, d=40.0, e=0.0, f=1.5))
    sub2 = GpiModel(density=density, asc_env=TanhEnvelope(c=2.0, d=40.0, e=4.0, f=0.0),
                    desc_env=TanhEnvelope(c=4.0, d=40.0, e=-4.0, f=2.0), kappa_desc=3.0)
    model = EgpiModel(submodels=[sub1, sub2], flag_desc=1.0)
    t, v = _demo_input()
    assert np.mean(np.abs(np.tanh(40.0 * v)) == 1.0) > 0.8
    z, active = egpi_eval(model, t, v)
    zb, ab = bruteforce.run_egpi(list(v), oracle_kwargs(sub1), oracle_kwargs(sub2),
                                 "descend_flag", flag_desc=1.0)
    assert np.max(np.abs(z - np.array(zb))) < 1e-12
    assert np.array_equal(active, np.array(ab))


def _crossed_egpi():
    # the narrow operators of both banks start with an empty band at the
    # first sample of every input below
    density = DensitySpec(lam=0.4, sigma=0.3, r1=0.2, rn=1.6, n=8)
    sub1 = GpiModel(density=density, asc_env=LinearEnvelope(a=1.0, b=2.0),
                    desc_env=LinearEnvelope(a=1.0, b=0.5))
    sub2 = GpiModel(density=density, asc_env=LinearEnvelope(a=0.8, b=1.5),
                    desc_env=LinearEnvelope(a=1.2, b=-0.5), kappa_desc=2.0)
    return EgpiModel(submodels=[sub1, sub2], flag_desc=0.0)


def _long_run_then_dither():
    """A rise longer than two blocks, one walk entry, then a quantized
    dither."""
    rng = np.random.default_rng(3)
    rise = np.linspace(-5.0, 4.0, 2 * _BLOCK + 37)
    dither = np.round((4.0 + rng.normal(0.0, 0.03, 700)) / 0.02) * 0.02
    return np.concatenate([rise, dither])


def _saturated_ties_model():
    """The saturated tanh banks of ``test_saturated_tanh_matches_bruteforce``."""
    density = DensitySpec(lam=0.3, sigma=0.2, r1=0.1, rn=2.5, n=12)
    sub1 = GpiModel(density=density, asc_env=TanhEnvelope(c=3.0, d=40.0, e=0.0, f=-1.0),
                    desc_env=TanhEnvelope(c=3.0, d=40.0, e=0.0, f=1.5))
    sub2 = GpiModel(density=density, asc_env=TanhEnvelope(c=2.0, d=40.0, e=4.0, f=0.0),
                    desc_env=TanhEnvelope(c=4.0, d=40.0, e=-4.0, f=2.0), kappa_desc=3.0)
    return EgpiModel(submodels=[sub1, sub2], flag_desc=1.0)


def _saturated_rerise():
    """Into saturation (|tanh| == 1 for |v| > 0.5), a dip inside it, and a
    150-sample rise back in it, then a long fall and a long rise: along
    the second rise every target equals the one its narrowest operator of
    bank 1 was left on, so targets tie with that operator's ``c``."""
    return np.concatenate([np.linspace(-1.0, 1.0, 200), np.linspace(1.0, 0.8, 21)[1:],
                           np.linspace(0.8, 1.0, 151)[1:], np.linspace(1.0, -1.0, 300)[1:],
                           np.linspace(-1.0, 1.0, 300)[1:]])


DEGENERATE_INPUTS = {
    "all-holds": lambda: np.full(40, 1.3),
    "alternation": lambda: 0.5 + 0.02 * (np.arange(301) % 2),
    "long-run-then-dither": _long_run_then_dither,
    "one-sample": lambda: np.array([2.0]),
    "ten-thousand-sample-rise": lambda: np.concatenate([np.linspace(-2.0, 6.0, 10_001),
                                                        np.linspace(6.0, 0.0, 301)[1:]]),
    "saturated-rerise": _saturated_rerise,
}

DEGENERATE_MODELS = {
    "reference": (reference_model, "two_flag"),
    "descend-flag": (_descend_flag_model, "descend_flag"),
    "crossed": (_crossed_egpi, "descend_flag"),
    "saturated": (_saturated_ties_model, "descend_flag"),
}


@pytest.mark.filterwarnings("ignore:empty play band")
@pytest.mark.parametrize("make_model,mode", DEGENERATE_MODELS.values(), ids=DEGENERATE_MODELS)
@pytest.mark.parametrize("make_input", DEGENERATE_INPUTS.values(), ids=DEGENERATE_INPUTS)
def test_degenerate_inputs_match_bruteforce(make_model, mode, make_input):
    v = make_input()
    t = 1e-3 * np.arange(v.size)
    model = make_model()
    sub1, sub2 = (oracle_kwargs(sub) for sub in model.submodels)
    zb, ab = bruteforce.run_egpi(list(v), sub1, sub2, mode,
                                 flag_asc=model.flag_asc, flag_desc=model.flag_desc)
    z, active = egpi_eval(model, t, v)
    assert np.max(np.abs(z - np.array(zb))) < 1e-12
    assert np.array_equal(active, np.array(ab))
    for sub, kwargs in zip(make_model().submodels, (sub1, sub2)):
        y = gpi_eval(sub, t, v)
        assert np.max(np.abs(y - np.array(bruteforce.run_gpi(list(v), **kwargs)))) < 1e-12


@pytest.mark.filterwarnings("ignore:empty play band")
@pytest.mark.parametrize("kind", ["wide-narrow", "narrow-mid", "one-bank"])
@pytest.mark.parametrize("make_input", [*DEGENERATE_INPUTS.values(), lambda: _dither_input()[1]],
                         ids=[*DEGENERATE_INPUTS, "dither"])
def test_unequal_banks_match_bruteforce_and_stream(kind, make_input):
    # one pass walks both banks' operators as rows of one array, each bank
    # on its own rows; banks of different sizes, densities, regulators and
    # envelope families, or one bank in both slots, keep each bank's rows
    # apart: the output matches the oracle, and a chunked evaluation keeps
    # the bits of a one-shot one, memory included
    v = make_input()
    t = 1e-3 * np.arange(v.size)
    model = unequal_banks_model(kind)
    sub1, sub2 = (oracle_kwargs(sub) for sub in model.submodels)
    zb, ab = bruteforce.run_egpi(list(v), sub1, sub2, _oracle_mode(model),
                                 flag_asc=model.flag_asc, flag_desc=model.flag_desc)
    z, active = egpi_eval(model, t, v)
    assert np.max(np.abs(z - np.array(zb))) < 1e-12
    assert np.array_equal(active, np.array(ab))
    chunked = unequal_banks_model(kind)
    cuts = [*range(0, v.size, 37), v.size]
    parts = [egpi_eval(chunked, t[a:b], v[a:b], reset=(a == 0)) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate([x for x, _ in parts]), z)
    assert np.array_equal(np.concatenate([a for _, a in parts]), active)
    for mine, theirs in zip(_memory(chunked), _memory(model), strict=True):
        assert np.array_equal(mine, theirs)


def _dither_mid_run_then_rise():
    """990 samples of the dither input from its sample 2, where sample 512
    lies inside a run, then a 100-sample rise to 10."""
    v = _dither_input()[1][2:992]
    v = np.concatenate([v, np.linspace(v[-1], 10.0, 101)[1:]])
    return 1e-3 * np.arange(v.size), v


@pytest.mark.filterwarnings("ignore:empty play band")
@pytest.mark.parametrize("make_model", [_descend_flag_model, reference_model])
@pytest.mark.parametrize("make_input", [_dither_then_rise, _dither_mid_run_then_rise])
def test_streaming_continues_a_run_cut_by_a_block_edge(make_model, make_input):
    # the first call ends 60 samples into the closing rise: too few for
    # an entry of its own, so the rise ends a block of several runs. The
    # next call continues the rise past _LONG samples, from the state the
    # rise was entered with. Sample _BLOCK lies inside the rise, or on the
    # second input inside an earlier run; as every entry begins a run, no
    # block edge falls there.
    t, v = make_input()
    d = _directions(v)
    rise = int(np.flatnonzero(d <= 0)[-1]) + 1
    stop = rise + 60
    assert stop % _BLOCK < 60 and rise + _LONG < v.size
    assert rise < _BLOCK or d[_BLOCK] == d[_BLOCK - 1] != 0
    whole = make_model()
    z_all, _ = egpi_eval(whole, t, v)
    model = make_model()
    z = [egpi_eval(model, t[a:b], v[a:b], reset=(a == 0))[0]
         for a, b in zip([0, stop], [stop, v.size])]
    assert np.array_equal(np.concatenate(z), z_all)
    for mine, theirs in zip(_memory(model), _memory(whole)):
        assert np.array_equal(mine, theirs)


def test_saturated_rerise_has_ties():
    # the saturated-rerise input of test_degenerate_inputs_match_bruteforce
    # does make targets tie: on the second rise of the saturated model's
    # bank 1, from sample _LONG on, where the closed form serves, some
    # target equals some operator's c exactly
    v = _saturated_rerise()
    start = 220  # the second rise, entered after the dip
    assert v[start] > v[start - 1] and v[start - 1] < v[start - 2]
    bank = _saturated_ties_model().submodels[0]
    gpi_eval(bank, 1e-3 * np.arange(start), v[:start])
    T = bank.asc_env(v[start:start + 150])
    c, _, _ = _sweep(bank.memory.states[0], bank_stack(bank).asc_off, True)
    assert np.isin(T[_LONG:], c).any()
