import numpy as np
import pytest

from fixtures import refuse_huge_arange

from hystfit import (
    ConfigError,
    DetectionError,
    InputError,
    Trajectory,
    decaying_sinusoid,
    detect_flag_point,
    gen_synthetic,
    reference_model,
)


# --------------------------------------------------------------- Trajectory

def test_trajectory_validates_timestamps():
    with pytest.raises(InputError):
        Trajectory(t=[0.0, 1.0, 1.0], v=[0.0, 1.0, 2.0])
    with pytest.raises(InputError):
        Trajectory(t=[0.0, 1.0], v=[0.0])
    with pytest.raises(InputError):
        Trajectory(t=[], v=[])
    with pytest.raises(InputError):
        Trajectory(t=[0.0, 1.0], v=[0.0, 1.0], theta=[1.0])


# --------------------------------------------------------- decaying_sinusoid

def test_decaying_sinusoid_start_value():
    traj = decaying_sinusoid()
    assert traj.t[0] == 0.0
    assert traj.v[0] == pytest.approx(8 * np.sin(np.pi / 4), abs=1e-12)
    assert traj.v[0] == pytest.approx(5.65685, abs=1e-5)


def test_decaying_sinusoid_sine_root():
    # 2*pi*t + pi/4 hits pi at t = 0.375
    traj = decaying_sinusoid()
    i = int(round(0.375 / 1e-3))
    assert traj.t[i] == pytest.approx(0.375, abs=1e-12)
    assert abs(traj.v[i]) < 1e-12


def test_decaying_sinusoid_final_value():
    traj = decaying_sinusoid()
    assert traj.t[-1] == pytest.approx(10.0, abs=1e-9)
    expected = 8 * np.exp(-0.4) * np.sin(20 * np.pi + np.pi / 4)
    assert traj.v[-1] == pytest.approx(expected, abs=1e-9)
    assert traj.v[-1] == pytest.approx(3.79190, abs=1e-4)


def test_decaying_sinusoid_envelope_bound():
    traj = decaying_sinusoid()
    assert np.all(np.abs(traj.v) <= 8 * np.exp(-0.04 * traj.t) + 1e-12)


def test_decaying_sinusoid_validates_config():
    with pytest.raises(ConfigError):
        decaying_sinusoid(t_start=1.0, t_end=1.0)
    with pytest.raises(ConfigError):
        decaying_sinusoid(dt=0.0)
    with pytest.raises(ConfigError):
        decaying_sinusoid(t_start=0.0, t_end=1.0, dt=2.0)


@pytest.mark.parametrize("bounds", [
    {"dt": np.nan}, {"dt": np.inf}, {"t_end": np.inf}, {"t_end": np.nan},
    {"t_start": -np.inf}, {"t_start": np.nan},
    # finite bounds whose sample count overflows (int() raised OverflowError)
    {"t_end": 1e308, "dt": 1e-10}, {"t_end": 1e300, "dt": 1e-300},
    {"t_start": -1e308, "t_end": 1e308, "dt": 1.0},
])
def test_decaying_sinusoid_rejects_non_finite_bounds(bounds):
    with pytest.raises(ConfigError, match="finite"):
        decaying_sinusoid(**bounds)


def test_decaying_sinusoid_too_many_samples_is_a_config_error(monkeypatch):
    # dt=1e-12 over 10 s asks for about 10**13 samples; the MemoryError
    # ended in an _ArrayMemoryError traceback. dt=1e-300 asks for a finite
    # 1e301, which numpy refuses with a ValueError before it allocates, so
    # that case runs with the real np.arange
    for dt in (1e-300, 1e-12):
        if dt == 1e-12:
            refuse_huge_arange(monkeypatch)
        count = int(np.floor(10.0 / dt + 1e-9)) + 1
        with pytest.raises(ConfigError, match=f"sample count {count} does not fit"):
            decaying_sinusoid(dt=dt)


@pytest.mark.parametrize("name,value", [("dt", "x"), ("t_end", True), ("t_start", None)])
def test_decaying_sinusoid_rejects_non_numbers(name, value):
    # dt="x" used to end in a bare TypeError
    with pytest.raises(ConfigError, match=name):
        decaying_sinusoid(**{name: value})


# ----------------------------------------------------------- flag detection

def test_detect_flag_at_turning_plateau():
    # triangle with the apex sampled twice: rest first appears at the turn
    v = np.concatenate([np.arange(0.0, 11.0), [10.0], np.arange(9.0, -1.0, -1.0)])
    t = np.arange(v.size, dtype=float)
    assert detect_flag_point(Trajectory(t=t, v=v), eps=0.1) == 10.0


def test_detect_flag_at_embedded_plateau():
    v = np.concatenate(
        [np.linspace(0, 10, 21), np.linspace(10, 6, 9)[1:], np.full(5, 6.0),
         np.linspace(6, 0, 13)[1:]]
    )
    t = np.arange(v.size, dtype=float)
    assert detect_flag_point(Trajectory(t=t, v=v), eps=0.1) == 6.0


def test_detect_flag_monotone_ramp_fails():
    v = np.linspace(0, 10, 50)
    t = np.arange(50.0)
    with pytest.raises(DetectionError):
        detect_flag_point(Trajectory(t=t, v=v), eps=1e-6)


def test_detect_flag_skips_leading_rest():
    v = np.concatenate([np.full(6, 2.0), np.linspace(2, 8, 13)[1:], np.full(4, 8.0)])
    t = np.arange(v.size, dtype=float)
    assert detect_flag_point(Trajectory(t=t, v=v), eps=0.1) == 8.0


def test_detect_flag_default_eps_is_relative():
    v = np.concatenate([np.linspace(0, 10, 21), np.full(3, 10.0), np.linspace(10, 0, 21)[1:]])
    t = np.arange(v.size, dtype=float)
    assert detect_flag_point(Trajectory(t=t, v=v)) == 10.0


def test_detect_flag_time_rescaling_invariance():
    v = np.concatenate([np.linspace(0, 10, 21), np.full(3, 10.0), np.linspace(10, 0, 21)[1:]])
    t = np.arange(v.size, dtype=float)
    f1 = detect_flag_point(Trajectory(t=t, v=v), eps=0.2)
    f2 = detect_flag_point(Trajectory(t=10.0 * t, v=v), eps=0.02)
    assert f1 == f2


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1.0])
def test_detect_flag_rejects_bad_eps(eps):
    traj = Trajectory(t=np.arange(5.0), v=np.array([0.0, 1.0, 2.0, 2.0, 1.0]))
    with pytest.raises(ConfigError, match="eps"):
        detect_flag_point(traj, eps=eps)


@pytest.mark.parametrize("eps", [True, "0.2"])
def test_detect_flag_rejects_non_number_eps(eps):
    # eps=True used to be taken as 1 and return a flag
    traj = Trajectory(t=np.arange(5.0), v=np.array([0.0, 1.0, 2.0, 2.0, 1.0]))
    with pytest.raises(ConfigError, match="eps"):
        detect_flag_point(traj, eps=eps)


def test_detect_flag_needs_three_samples():
    with pytest.raises(InputError):
        detect_flag_point(Trajectory(t=[0.0, 1.0], v=[0.0, 1.0]), eps=0.1)


def test_detect_flag_motionless_input_fails():
    traj = Trajectory(t=np.arange(5.0), v=np.full(5, 2.0))
    with pytest.raises(DetectionError):
        detect_flag_point(traj)  # default eps has no rate to scale against


# ------------------------------------------------------------ gen_synthetic

def test_gen_synthetic_noiseless_equals_model_output():
    from hystfit import egpi_eval

    model = reference_model()
    base = decaying_sinusoid(t_end=2.0)
    data = gen_synthetic(model, base, noise_std=0.0)
    z, _ = egpi_eval(reference_model(), base.t, base.v)
    assert np.array_equal(data.theta, z)


def test_gen_synthetic_same_seed_reproduces():
    model = reference_model()
    base = decaying_sinusoid(t_end=1.0)
    d1 = gen_synthetic(model, base, noise_std=0.3, seed=42)
    d2 = gen_synthetic(reference_model(), base, noise_std=0.3, seed=42)
    assert np.array_equal(d1.theta, d2.theta)
    d3 = gen_synthetic(reference_model(), base, noise_std=0.3, seed=43)
    assert not np.array_equal(d1.theta, d3.theta)


def test_gen_synthetic_noise_standard_deviation():
    model = reference_model()
    base = decaying_sinusoid(dt=1e-3)  # 10001 samples
    clean = gen_synthetic(reference_model(), base, noise_std=0.0)
    noisy = gen_synthetic(model, base, noise_std=0.1, seed=7)
    sd = float(np.std(noisy.theta - clean.theta))
    assert 0.097 <= sd <= 0.103


def test_gen_synthetic_rejects_negative_noise():
    with pytest.raises(ConfigError):
        gen_synthetic(reference_model(), decaying_sinusoid(t_end=1.0), noise_std=-0.1)


@pytest.mark.parametrize("noise_std", [np.nan, np.inf])
def test_gen_synthetic_rejects_non_finite_noise(noise_std):
    with pytest.raises(ConfigError, match="noise_std"):
        gen_synthetic(reference_model(), decaying_sinusoid(t_end=1.0), noise_std=noise_std)


@pytest.mark.parametrize("noise_std", [0.0, 0.1])
def test_gen_synthetic_rejects_negative_seed(noise_std):
    with pytest.raises(ConfigError, match="seed"):
        gen_synthetic(reference_model(), decaying_sinusoid(t_end=1.0), noise_std, seed=-1)


@pytest.mark.parametrize("seed", [1.5, True, "1"])
def test_gen_synthetic_rejects_non_integer_seed(seed):
    # seed=1.5 used to end in numpy's TypeError
    with pytest.raises(ConfigError, match="seed"):
        gen_synthetic(reference_model(), decaying_sinusoid(t_end=1.0), 0.1, seed=seed)


@pytest.mark.parametrize("noise_std", [True, "0.1", None])
def test_gen_synthetic_rejects_non_number_noise(noise_std):
    with pytest.raises(ConfigError, match="noise_std"):
        gen_synthetic(reference_model(), decaying_sinusoid(t_end=1.0), noise_std)
