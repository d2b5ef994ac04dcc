import numpy as np
import pytest

from hystfit import (
    ConfigError,
    LinearEnvelope,
    TanhEnvelope,
    envelope_from_dict,
    reference_model,
)


def test_linear_eval_identity():
    assert LinearEnvelope(a=1.0, b=0.0)(3.5) == 3.5


def test_tanh_eval_root():
    # argument of tanh vanishes at v = 2.5
    env = TanhEnvelope(c=8.0, d=0.2, e=-0.5, f=0.0)
    assert env(2.5) == pytest.approx(0.0, abs=1e-15)


def test_tanh_eval_offset_at_argument_zero():
    env = TanhEnvelope(c=10.0, d=0.2, e=0.5, f=0.1)
    assert env(-2.5) == pytest.approx(0.1, abs=1e-15)


def test_eval_accepts_arrays():
    env = LinearEnvelope(a=2.0, b=1.0)
    out = env(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [1.0, 3.0, 5.0])


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: LinearEnvelope(a=0.0, b=1.0),
        lambda: LinearEnvelope(a=-2.0, b=0.0),
        lambda: TanhEnvelope(c=0.0, d=1.0, e=0.0, f=0.0),
        lambda: TanhEnvelope(c=-1.0, d=1.0, e=0.0, f=0.0),
        lambda: TanhEnvelope(c=1.0, d=0.0, e=0.0, f=0.0),
        lambda: TanhEnvelope(c=1.0, d=-0.3, e=0.0, f=0.0),
        lambda: LinearEnvelope(a=np.nan, b=0.0),
    ],
)
def test_degenerate_parameters_rejected_at_construction(ctor):
    with pytest.raises(ConfigError):
        ctor()


def test_strict_monotonicity_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        if rng.random() < 0.5:
            env = LinearEnvelope(a=rng.uniform(0.05, 4), b=rng.uniform(-3, 3))
        else:
            env = TanhEnvelope(
                c=rng.uniform(0.5, 12),
                d=rng.uniform(0.02, 1.5),
                e=rng.uniform(-2, 2),
                f=rng.uniform(-3, 3),
            )
        v1, v2 = np.sort(rng.uniform(-20, 20, 2))
        if v1 != v2:
            assert env(v1) < env(v2)



def _ulp_run(x, half=2000):
    """The 2*half + 1 consecutive doubles centred on x."""
    up, down = [x], [x]
    for _ in range(half):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], -np.inf))
    return np.array(down[:0:-1] + up)


MONOTONE_ENVELOPES = [
    *(env for sub in reference_model().submodels for env in (sub.asc_env, sub.desc_env)),
    TanhEnvelope(c=5.0, d=40.0, e=0.0, f=0.0),  # |tanh| == 1 beyond |v| ~ 0.5
    LinearEnvelope(a=1e-12, b=3.0),
    LinearEnvelope(a=1e6, b=-2.0),
]


@pytest.mark.parametrize("env", MONOTONE_ENVELOPES, ids=repr)
def test_envelope_is_monotone_in_floating_point(env):
    # the bank evaluation takes each state's branch target as already monotone
    # along a monotone input run; a single decreasing step would let a
    # state move against the input
    v = np.sort(np.random.default_rng(13).uniform(-60.0, 60.0, 10**6))
    assert np.all(np.diff(env(v)) >= 0)
    if isinstance(env, TanhEnvelope):
        # the inflection point, the steep flanks and the saturated tails
        centres = [(x - env.e) / env.d for x in (0.0, -5.0, 5.0, -10.0, 10.0, -19.0, 19.0)]
    else:
        centres = [-1e3, 1e3]
    for x in [0.0, *centres]:
        assert np.all(np.diff(env(_ulp_run(x))) >= 0), x

def test_linear_family_is_exactly_affine():
    rng = np.random.default_rng(12)
    env = LinearEnvelope(a=1.7, b=-0.4)
    for _ in range(100):
        v1, v2 = rng.uniform(-10, 10, 2)
        alpha = rng.uniform(0, 1)
        lhs = env(alpha * v1 + (1 - alpha) * v2)
        rhs = alpha * env(v1) + (1 - alpha) * env(v2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_dict_roundtrip():
    for env in (
        LinearEnvelope(a=2.5, b=-1.0),
        TanhEnvelope(c=8.0, d=0.2, e=-0.5, f=0.1),
    ):
        assert envelope_from_dict(env.to_dict()) == env


def test_envelope_from_dict_diagnostics():
    with pytest.raises(ConfigError):
        envelope_from_dict({"family": "cubic", "a": 1.0})
    with pytest.raises(ConfigError):
        envelope_from_dict({"family": "linear", "a": 1.0})
    with pytest.raises(ConfigError):
        envelope_from_dict({})
