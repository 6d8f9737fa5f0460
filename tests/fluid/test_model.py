"""Unit tests for the mean-field fluid model (docs/SCALE.md).

What these pin: the ODE's closed-form equilibrium (chosen so the fluid
fixed point matches the discrete per-receiver chain *exactly*), mass
conservation under the RK4 integrator, byte-identical trajectories
between the vectorized numpy integrator and a per-cell scalar RK4
oracle, and the
stride-decimated Gilbert-Elliott consecutive-loss recursion against its
textbook closed form.
"""

import math

import pytest

from repro import fluid
from repro.fluid import (
    DEFAULT_DT,
    FluidParams,
    consecutive_loss_probability,
    crossing_times_to,
    derive_rates,
    mean_loss_probability,
    solve,
    solve_many,
    summarize,
)
from repro.net.loss import BernoulliLoss, GilbertElliottLoss


# -- loss-probability helpers ------------------------------------------------


def test_mean_loss_probability_accepts_models_and_floats():
    assert mean_loss_probability(0.25) == 0.25
    assert mean_loss_probability(BernoulliLoss(0.3)) == pytest.approx(0.3)
    ge = GilbertElliottLoss.with_mean(0.2, burst_length=5.0)
    assert mean_loss_probability(ge) == pytest.approx(0.2)


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
def test_mean_loss_probability_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        mean_loss_probability(bad)


def test_consecutive_loss_bernoulli_is_power():
    for p in (0.05, 0.3, 0.6):
        for m in (1, 2, 4):
            assert consecutive_loss_probability(p, m) == pytest.approx(p**m)


def test_consecutive_loss_gilbert_elliott_closed_form():
    # For stride=1 with bad_loss=1/good_loss=0, the probability of m
    # consecutive losses is pi_bad * (1 - p_bg)^(m-1): the chain must
    # be bad at the first draw and stay bad for the next m-1.
    ge = GilbertElliottLoss(p_gb=0.05, p_bg=0.25)
    pi_bad = 0.05 / (0.05 + 0.25)
    for m in (1, 2, 3, 5):
        expected = pi_bad * (1.0 - 0.25) ** (m - 1)
        assert consecutive_loss_probability(ge, m) == pytest.approx(expected)


def test_consecutive_loss_stride_decimation_bounds():
    # Decimating the chain (stride > 1) weakens the burst correlation,
    # so P_m falls between the stride-1 value and the iid power.
    ge = GilbertElliottLoss.with_mean(0.3, burst_length=6.0)
    m = 4
    correlated = consecutive_loss_probability(ge, m, stride=1)
    iid = mean_loss_probability(ge) ** m
    decimated = consecutive_loss_probability(ge, m, stride=4)
    assert iid < decimated < correlated
    # Very large stride converges to the iid power.
    far = consecutive_loss_probability(ge, m, stride=2000)
    assert far == pytest.approx(iid, rel=1e-6)


def test_consecutive_loss_rejects_bad_args():
    with pytest.raises(ValueError):
        consecutive_loss_probability(0.5, 0)
    with pytest.raises(ValueError):
        consecutive_loss_probability(0.5, 2, stride=0)


# -- parameters and rates ----------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        FluidParams(loss=1.5)
    with pytest.raises(ValueError):
        FluidParams(loss=0.1, refresh_interval=0.0)
    with pytest.raises(ValueError):
        FluidParams(loss=0.1, timeout_multiple=0)
    with pytest.raises(ValueError):
        FluidParams(loss=0.1, churn_rate=-1.0)
    with pytest.raises(ValueError):
        FluidParams(loss=0.1, n_receivers=0.0)
    with pytest.raises(ValueError):
        FluidParams(loss=0.1, loss_stride=0)


def test_equilibrium_matches_discrete_chain():
    # With no updates and no churn the fluid fixed point must equal the
    # per-receiver epoch chain exactly: held fraction 1 - p^m.
    for loss in (0.1, 0.4):
        for m in (2, 4):
            rates = derive_rates(
                FluidParams(loss=loss, timeout_multiple=m)
            )
            assert rates.hold_eq == pytest.approx(1.0 - loss**m, rel=1e-12)


def test_equilibrium_closed_form_consistency():
    # The reported equilibrium fractions must be the actual fixed point
    # of the ODE: derivatives vanish there.
    params = FluidParams(
        loss=0.3, timeout_multiple=3, update_rate=0.5, churn_rate=0.1
    )
    r = derive_rates(params)
    a, h, nu, g = r.acquire, r.expire, r.update, r.churn
    c, s, f = r.consistent_eq, r.stale_eq, r.expired_eq
    assert a * (1.0 - c) - (nu + h + g) * c == pytest.approx(0.0, abs=1e-12)
    assert nu * c - (a + h + g) * s == pytest.approx(0.0, abs=1e-12)
    assert h * (c + s) - (a + g) * f == pytest.approx(0.0, abs=1e-12)


def test_solver_converges_to_equilibrium():
    params = FluidParams(loss=0.4, timeout_multiple=4)
    run = solve(params, horizon=200.0, dt=DEFAULT_DT)
    assert run.hold[-1] == pytest.approx(run.rates.hold_eq, abs=1e-6)
    assert run.consistent[-1] == pytest.approx(
        run.rates.consistent_eq, abs=1e-6
    )


def test_mass_conservation_and_bounds():
    params = FluidParams(
        loss=0.5, timeout_multiple=2, update_rate=1.0, churn_rate=0.2
    )
    run = solve(params, horizon=50.0, dt=DEFAULT_DT)
    for c, s, f in zip(run.consistent, run.stale, run.expired):
        for value in (c, s, f):
            assert 0.0 <= value <= 1.0
        assert c + s + f <= 1.0 + 1e-12
    # Cumulative expected expiries never decreases.
    assert all(
        b >= a - 1e-12 for a, b in zip(run.expiries, run.expiries[1:])
    )


def _scalar_rk4(rates, steps, dt):
    """The defining per-cell RK4 loop on python floats.

    Same expressions in the same order as the vectorized integrator, so
    the two must agree to the last bit (no tolerance laundering).
    """
    a, h, nu, gamma, fe = (
        rates.acquire,
        rates.expire,
        rates.update,
        rates.churn,
        rates.false_expiry,
    )
    c_decay = nu + h + gamma
    s_decay = a + h + gamma
    f_decay = a + gamma

    def deriv(c, s, f):
        dc = a * (1.0 - c) - c_decay * c
        ds = nu * c - s_decay * s
        df = h * (c + s) - f_decay * f
        de = fe * (c + s)
        return dc, ds, df, de

    half = 0.5 * dt
    sixth = dt / 6.0
    c = s = f = e = 0.0
    cs, ss, fs, es = [c], [s], [f], [e]
    for _ in range(steps):
        k1c, k1s, k1f, k1e = deriv(c, s, f)
        k2c, k2s, k2f, k2e = deriv(
            c + half * k1c, s + half * k1s, f + half * k1f
        )
        k3c, k3s, k3f, k3e = deriv(
            c + half * k2c, s + half * k2s, f + half * k2f
        )
        k4c, k4s, k4f, k4e = deriv(c + dt * k3c, s + dt * k3s, f + dt * k3f)
        c = c + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        s = s + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        f = f + sixth * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
        e = e + sixth * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
        cs.append(c)
        ss.append(s)
        fs.append(f)
        es.append(e)
    return cs, ss, fs, es


def test_numpy_and_python_integrators_are_byte_identical():
    params_list = [
        FluidParams(loss=0.1, timeout_multiple=4),
        FluidParams(loss=0.4, timeout_multiple=2, churn_rate=0.3),
        FluidParams(loss=0.6, timeout_multiple=4, update_rate=0.7),
    ]
    dt = 0.05
    vectorized = solve_many(params_list, horizon=20.0, dt=dt)
    for run in vectorized:
        assert run.times == [i * dt for i in range(401)]
        consistent, stale, expired, expiries = _scalar_rk4(run.rates, 400, dt)
        assert run.consistent == consistent
        assert run.stale == stale
        assert run.expired == expired
        assert run.expiries == expiries


def test_solve_matches_solve_many():
    params = FluidParams(loss=0.2, timeout_multiple=4)
    single = solve(params, horizon=10.0, dt=0.1)
    (many,) = solve_many([params], horizon=10.0, dt=0.1)
    assert single.consistent == many.consistent
    assert single.expiries == many.expiries


# -- metrics -----------------------------------------------------------------


def test_crossing_times_monotone_and_nan_when_unreached():
    times = [0.0, 1.0, 2.0, 3.0]
    series = [0.0, 0.5, 0.8, 1.0]
    crossings = crossing_times_to(times, series, target=1.0)
    assert crossings[0.5] == 1.0
    assert crossings[0.9] == 3.0
    assert crossings[0.99] == 3.0
    assert crossings[0.5] <= crossings[0.9] <= crossings[0.99]
    unreached = crossing_times_to(times, [0.0, 0.1, 0.2, 0.3], target=1.0)
    assert all(math.isnan(t) for t in unreached.values())


def test_summarize_scales_false_expiries_with_population():
    params_small = FluidParams(loss=0.4, n_receivers=1000.0)
    params_large = FluidParams(loss=0.4, n_receivers=1_000_000.0)
    small = summarize(solve(params_small, 80.0, 0.05), n_records=4)
    large = summarize(solve(params_large, 80.0, 0.05), n_records=4)
    # Intensive metrics are N-invariant; the expiry rate is extensive.
    assert large["consistency"] == small["consistency"]
    assert large["t90_s"] == small["t90_s"]
    assert large["false_expiry_per_s"] == pytest.approx(
        1000.0 * small["false_expiry_per_s"]
    )


def test_package_reexports():
    for name in (
        "DEFAULT_DT",
        "FluidParams",
        "FluidRates",
        "FluidRun",
        "consecutive_loss_probability",
        "crossing_times_to",
        "derive_rates",
        "mean_loss_probability",
        "solve",
        "solve_many",
        "summarize",
    ):
        assert hasattr(fluid, name)
