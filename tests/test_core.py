import math
from dataclasses import replace

import numpy as np
import pytest

from transducersim import (DeviceBundle, DeviceParams, InstabilityError,
                           ParameterError, PumpState, TransducerError,
                           backaction_rate, cooperativity, core, dbm_to_w,
                           efficiencies, fit_linewidth_vs_photons,
                           photon_number, resolve_photon_number,
                           thermal_occupation, total_efficiency,
                           total_mech_linewidth)
from transducersim.sweep import evaluate, override

from conftest import random_device, relerr

# parameter set quoted to the same precision as the published table
TABLE = dict(f_o=194.9e12, kappa_o=2.1e9, kappa_oe=0.99e9, f_m=4.32e9,
             gamma_mi=8.4e6, gamma_me=58.0, g_om=130e3, eta_oc=0.29,
             c_idt=0.42e-15, z0=50.0)


@pytest.fixture(scope="module")
def table_dev():
    return DeviceParams(**TABLE)


# ------------------------------------------------------------- photon number

def test_photon_number_at_minus_7p9_dbm(table_dev):
    n_c = photon_number(table_dev, 4.32e9, dbm_to_w(-7.9))
    assert relerr(n_c, 1.0e4) < 0.05


def test_photon_number_zero_power(table_dev):
    assert photon_number(table_dev, 4.32e9, 0.0) == 0.0


def test_photon_number_at_minus_5_dbm(table_dev):
    n_c = photon_number(table_dev, 4.32e9, dbm_to_w(-5.0))
    assert relerr(n_c, 1.8e4) < 0.15


def test_photon_number_linear_in_power_monotone_in_detuning(table_dev):
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = random_device(rng)
        det = rng.uniform(0.0, 10e9)
        p = rng.uniform(1e-6, 1e-3)
        assert math.isclose(photon_number(d, det, 3 * p),
                            3 * photon_number(d, det, p), rel_tol=1e-12)
        dets = np.linspace(0.0, 12e9, 30)
        vals = [photon_number(d, x, p) for x in dets]
        assert all(a > b for a, b in zip(vals, vals[1:]))


# -------------------------------------------------------------- cooperativity

def test_cooperativity_at_bit_array_operating_point(table_dev):
    assert relerr(cooperativity(table_dev, 1.8e4, 8.4e6), 0.07) < 0.05


def test_cooperativity_zero_photons(table_dev):
    assert cooperativity(table_dev, 0.0, 8.4e6) == 0.0


def test_cooperativity_at_1e4_photons(table_dev):
    # 4 * 1e4 * (130e3)^2 / (2.1e9 * 8.4e6), frozen independently
    assert relerr(cooperativity(table_dev, 1.0e4, 8.4e6),
                  0.038321995464852605) < 1e-12


def test_cooperativity_linear_in_photon_number():
    rng = np.random.default_rng(2)
    for _ in range(30):
        d = random_device(rng)
        n = rng.uniform(1.0, 1e6)
        gm = rng.uniform(1e5, 1e8)
        assert math.isclose(cooperativity(d, 2 * n, gm),
                            2 * cooperativity(d, n, gm), rel_tol=1e-12)


# ------------------------------------------------------------ backaction rate

def test_backaction_rate_at_1p8e4_photons(table_dev):
    assert relerr(backaction_rate(table_dev, 1.8e4), 540e3) < 0.10


def test_backaction_rate_zero(table_dev):
    assert backaction_rate(table_dev, 0.0) == 0.0


def test_backaction_rate_quadratic_in_g_om(table_dev):
    doubled = DeviceParams(**{**TABLE, "g_om": 2 * TABLE["g_om"]})
    assert math.isclose(backaction_rate(doubled, 1.8e4),
                        4 * backaction_rate(table_dev, 1.8e4), rel_tol=1e-12)


def test_backaction_algebraic_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(30):
        d = random_device(rng)
        n = rng.uniform(1.0, 1e6)
        assert math.isclose(backaction_rate(d, n) * d.kappa_o / (4 * n),
                            d.g_om ** 2, rel_tol=1e-12)


# ------------------------------------------------------- total mech linewidth

def n_c_for_backaction(dev, gamma_om):
    return gamma_om * dev.kappa_o / (4 * dev.g_om ** 2)


def test_linewidth_blue_narrowing(table_dev):
    n_c = n_c_for_backaction(table_dev, 0.54e6)
    assert relerr(total_mech_linewidth(table_dev, n_c, "blue"), 7.86e6) < 1e-9


def test_linewidth_zero_photons_either_sign(table_dev):
    for sign in ("blue", "red"):
        assert total_mech_linewidth(table_dev, 0.0, sign) == TABLE["gamma_mi"]


def test_linewidth_red_broadening(table_dev):
    n_c = n_c_for_backaction(table_dev, 0.54e6)
    assert relerr(total_mech_linewidth(table_dev, n_c, "red"), 8.94e6) < 1e-9


def test_linewidth_blue_instability(table_dev):
    n_c = n_c_for_backaction(table_dev, 1.01 * TABLE["gamma_mi"])
    with pytest.raises(InstabilityError):
        total_mech_linewidth(table_dev, n_c, "blue")


@pytest.mark.parametrize("as_column", [False, True], ids=["scalar", "column"])
def test_threshold_message_tells_rates_one_ulp_apart(table_dev, as_column):
    # {:.4g} printed both rates as 8.4e+06, hiding which one is larger
    gamma_mi = table_dev.gamma_mi
    above = math.nextafter(gamma_mi, math.inf)
    dev, gamma_om = table_dev, above
    if as_column:
        dev = replace(table_dev, gamma_mi=np.float64(gamma_mi))
        gamma_om = np.array([0.0, above, 2 * above])
    with pytest.raises(InstabilityError) as err:
        core.stable_sign(dev, gamma_om, "blue")
    assert str(err.value) == (
        "backaction rate 8400000.000000002 Hz >= intrinsic linewidth "
        "8400000.0 Hz: parametric oscillation threshold")


# ---------------------------------------------------------------- efficiencies

def test_eta_o(table_dev):
    eta_o, _ = efficiencies(table_dev, 8.4e6)
    assert relerr(eta_o, 0.47) < 0.01


def test_eta_em(table_dev):
    _, eta_em = efficiencies(table_dev, 8.4e6)
    assert relerr(eta_em, 7e-6) < 0.05


def test_eta_em_fully_extrinsic(table_dev):
    _, eta_em = efficiencies(table_dev, TABLE["gamma_me"])
    assert eta_em == 1.0


def test_efficiencies_rejects_gamma_m_below_gamma_me(table_dev):
    with pytest.raises(ParameterError):
        efficiencies(table_dev, 0.5 * TABLE["gamma_me"])


# ------------------------------------------------------------ total efficiency

def test_total_efficiency_table1(table_dev):
    pump = PumpState(detuning=4.32e9, n_c=1.0e4)
    assert relerr(total_efficiency(table_dev, pump, "blue"), 1.5e-7) < 0.10


def test_total_efficiency_zero_photons(table_dev):
    pump = PumpState(detuning=4.32e9, n_c=0.0)
    assert total_efficiency(table_dev, pump, "red") == 0.0


def test_total_efficiency_red_maximum_at_unit_cooperativity(table_dev):
    n_c = table_dev.kappa_o * table_dev.gamma_m / (4 * table_dev.g_om ** 2)
    pump = PumpState(detuning=-4.32e9, n_c=n_c)
    eta_o, eta_em = efficiencies(table_dev, table_dev.gamma_m)
    assert math.isclose(total_efficiency(table_dev, pump, "red"),
                        table_dev.eta_oc * eta_o * eta_em, rel_tol=1e-12)


def test_total_efficiency_red_bound():
    rng = np.random.default_rng(4)
    for _ in range(40):
        d = random_device(rng)
        n_c = rng.uniform(0.0, 1e6)
        eta_o, eta_em = efficiencies(d, d.gamma_m)
        eta = total_efficiency(d, PumpState(detuning=-d.f_m, n_c=n_c), "red")
        assert eta <= d.eta_oc * eta_o * eta_em * (1 + 1e-12)


def test_total_efficiency_blue_red_ratio():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = random_device(rng)
        c = cooperativity(d, n_c := rng.uniform(1.0, 1e4), d.gamma_m)
        if c >= 0.99:
            continue
        pump = PumpState(detuning=d.f_m, n_c=n_c)
        ratio = total_efficiency(d, pump, "blue") / \
            total_efficiency(d, pump, "red")
        assert math.isclose(ratio, ((1 + c) / (1 - c)) ** 2, rel_tol=1e-9)


def test_total_efficiency_blue_instability(table_dev):
    n_c = 1.1 * table_dev.kappa_o * table_dev.gamma_m / (4 * table_dev.g_om ** 2)
    with pytest.raises(InstabilityError):
        total_efficiency(table_dev, PumpState(detuning=4.32e9, n_c=n_c), "blue")


# --------------------------------------------------------- thermal occupation

def test_thermal_occupation_room_temperature():
    # Bose factor at (4.32 GHz, 300 K), frozen from a 50-digit evaluation
    assert relerr(thermal_occupation(4.32e9, 300.0), 1446.4874967108869) < 1e-9


def test_thermal_occupation_deep_quantum_regime():
    # (4.32 GHz, 10 mK), same high-precision oracle
    assert relerr(thermal_occupation(4.32e9, 0.010), 9.9058040595037e-10) < 1e-9


def test_thermal_occupation_high_frequency_limit():
    assert thermal_occupation(1e15, 300.0) < 1e-60


def test_thermal_occupation_past_expm1_overflow():
    from transducersim import CODATA
    # x = h f / k T = 710.5: expm1 overflows, n_th = e^-x is still a subnormal
    f = 710.5 * CODATA.k_B / CODATA.h
    assert thermal_occupation(f, 1.0) == math.exp(-710.5) > 0.0
    assert thermal_occupation(4.32e9, 1e-6) == 0.0
    temps = np.array([1e-6, 1.0, 4.0, 300.0])
    got = thermal_occupation(f, temps)
    assert got.tolist()[:2] == [0.0, math.exp(-710.5)]
    assert np.all(got[2:] == 1.0 / np.expm1(CODATA.h * f / (CODATA.k_B * temps[2:])))


def test_thermal_occupation_high_temperature_asymptote():
    from transducersim import CODATA
    rng = np.random.default_rng(6)
    for _ in range(30):
        f = rng.uniform(1e6, 1e10)
        t_min = CODATA.h * f / (0.01 * CODATA.k_B)     # x = h f / k T < 0.01
        temp = rng.uniform(t_min, 100 * t_min)
        assert relerr(thermal_occupation(f, temp),
                      CODATA.k_B * temp / (CODATA.h * f)) < 1e-3


# ------------------------------------------------------------------ validation

def test_device_params_validation_is_eager():
    with pytest.raises(ParameterError):
        DeviceParams(**{**TABLE, "kappa_oe": 3e9})       # exceeds kappa_o
    with pytest.raises(ParameterError):
        DeviceParams(**{**TABLE, "gamma_mi": -1.0})
    with pytest.raises(ParameterError):
        DeviceParams(**{**TABLE, "eta_oc": 1.5})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_records_reject_non_finite_values(bad):
    from transducersim import LinkConfig, MechanicalMode, QubitConfig
    for name in TABLE:
        with pytest.raises(ParameterError):
            DeviceParams(**{**TABLE, name: bad})
    for kw in ({"n_c": bad}, {"p_on_chip": bad}, {"n_c": 1e3, "detuning": bad}):
        with pytest.raises(ParameterError):
            PumpState(**{"detuning": 4.32e9, **kw})
    mode = dict(f=4.32e9, gamma=8.4e6, g=130e3, phi=0.5, gamma_e=58.0)
    for name in mode:
        with pytest.raises(ParameterError):
            MechanicalMode(**{**mode, name: bad})
    qubit = dict(c_q=60e-15, f_mu=4.32e9, kappa_mu=1e6)
    for name in qubit:
        with pytest.raises(ParameterError):
            QubitConfig(**{**qubit, name: bad})
    link = dict(bits=(0, 1), rate=1e6, gamma_m=7.9e6, f_if=0.0, v0=1.0,
                noise_rms=0.0)
    for name in ("rate", "gamma_m", "f_if", "v0", "noise_rms"):
        with pytest.raises(ParameterError):
            LinkConfig(**{**link, name: bad})


def test_blue_detuned_nan_raises(table_dev):
    # NaN used to slip past the parametric-threshold comparison
    with pytest.raises(ParameterError):
        total_efficiency(table_dev, PumpState(detuning=4.32e9, n_c=math.nan),
                         "blue")
    with pytest.raises(ParameterError):
        DeviceParams(**{**TABLE, "g_om": math.nan})
    # a nan backaction rate fails the threshold check written as "not ok"
    with pytest.raises(InstabilityError):
        core.stable_sign(table_dev, math.nan, "blue")


def test_columns_quote_the_first_failing_element(table_dev):
    # an array field or argument fails with the message of its first bad row
    p_w = dbm_to_w(-7.9)
    n_good = photon_number(table_dev, 4.32e9, p_w)
    cases = [
        (lambda v: DeviceParams(**{**TABLE, "g_om": v}), [130e3, -1.0, -2.0]),
        (lambda v: DeviceParams(**{**TABLE, "kappa_oe": v}), [1e9, 3e9, 4e9]),
        (lambda v: resolve_photon_number(
            table_dev, PumpState(detuning=4.32e9, p_on_chip=v, n_c=n_good)),
         [p_w, 1.5 * p_w, 2.0 * p_w]),
        (lambda v: total_mech_linewidth(table_dev, v, "blue"), [0.0, 1e6, 2e6]),
        (lambda v: total_efficiency(table_dev, PumpState(detuning=4.32e9, n_c=v),
                                    "blue"), [1e3, 1e6, 2e6]),
        (lambda v: thermal_occupation(4.32e9, v), [4.0, math.nan, 0.0]),
    ]
    for build, column in cases:
        with pytest.raises(TransducerError) as from_column:
            build(np.array(column))
        with pytest.raises(TransducerError) as from_scalar:
            build(column[1])
        assert type(from_column.value) is type(from_scalar.value)
        assert str(from_column.value) == str(from_scalar.value)


def test_one_sign_rule_for_every_entry_point(table_dev):
    pump = PumpState(detuning=4.32e9, n_c=1e3)
    calls = [lambda s: total_mech_linewidth(table_dev, 1e3, s),
             lambda s: total_efficiency(table_dev, pump, s),
             lambda s: fit_linewidth_vs_photons([[0, 1], [1, 2], [2, 3]], s,
                                                1e9),
             lambda s: override(DeviceBundle(table_dev, pump), {}, {}, sign=s)]
    for call in calls:
        with pytest.raises(ParameterError) as err:
            call("Blue")
        assert str(err.value) == "sign must be 'blue' or 'red' (got 'Blue')"


def test_gamma_tot_c_om_and_eta_tot_share_the_blue_threshold():
    # gamma_om below gamma_mi, in [gamma_mi, gamma_mi + gamma_me), where
    # C_om at the bare linewidth is still below 1, and above: a blue pump
    # raises for all three quantities or for none; a red pump never does
    rng = np.random.default_rng(18)
    for _ in range(40):
        d = random_device(rng)
        d = replace(d, gamma_me=rng.uniform(1.0, d.gamma_mi))
        for gamma_om, unstable in (
                (d.gamma_mi * rng.uniform(0.0, 0.99), False),
                (d.gamma_mi + d.gamma_me * rng.uniform(0.01, 0.99), True),
                (d.gamma_m * rng.uniform(1.01, 10.0), True)):
            n_c = n_c_for_backaction(d, gamma_om)
            assert (cooperativity(d, n_c, d.gamma_m) < 1) == \
                (gamma_om < d.gamma_m)
            for detuning in (d.f_m, -d.f_m):
                bundle = DeviceBundle(d, PumpState(detuning=detuning, n_c=n_c))
                raised = []
                for name in ("gamma_tot", "c_om", "eta_tot"):
                    try:
                        evaluate((name,), bundle, {})
                    except InstabilityError:
                        raised.append(name)
                blue_unstable = unstable and detuning > 0
                assert raised == ["gamma_tot", "c_om", "eta_tot"] * blue_unstable


def test_blue_efficiency_next_to_the_threshold_stays_finite():
    # with gamma_me = 0, C_om is gamma_om / gamma_mi; read off another
    # rounding of 4 n_c g_om^2 / kappa_o, it can reach 1.0 just below
    # the threshold, where (1 - C_om)^2 is zero
    rng = np.random.default_rng(19)
    for _ in range(300):
        d = replace(random_device(rng), gamma_me=0.0)
        n_c = n_c_for_backaction(d, d.gamma_mi)
        for _ in range(8):
            n_c = math.nextafter(n_c, 0.0)
            try:
                eta = total_efficiency(d, PumpState(detuning=d.f_m, n_c=n_c),
                                       "blue")
            except InstabilityError:
                continue
            assert eta == 0.0


def test_pump_sign_of_a_detuning_column():
    assert PumpState(detuning=np.array([0.0, 1e9]), n_c=1e3).sign == "blue"
    assert PumpState(detuning=np.array([-1e9, -1.0]), n_c=1e3).sign == "red"
    with pytest.raises(ParameterError):
        PumpState(detuning=np.array([-1e9, 1e9]), n_c=1e3).sign


def _argument_cases():
    """A param (call, argument name, rule text, bad value) per bad value of
    every function argument checked with the record range rules, and of
    every count checked to be an integer."""
    from transducersim import (LinkConfig, MechanicalMode, QubitConfig, Trace,
                               calibrate_coherent_phonons, driven_spectrum,
                               fit_linewidth_vs_photons, fit_lorentzian_multi,
                               gamma_me_from_phonons, harmonic_spectrum,
                               steady_state_coherent_phonons)
    from transducersim.sweep import SweepSpec
    dev = DeviceParams(**TABLE)
    mode = MechanicalMode(f=4.32e9, gamma=8.4e6, g=130e3, gamma_e=58.0)
    grid = np.linspace(4.30e9, 4.34e9, 64)
    pts = np.array([[1e4, 8.3e6], [5e4, 7.9e6], [1e5, 7.4e6]])
    mode_kw = dict(f=4.32e9, gamma=8.4e6, g=130e3, phi=0.5, gamma_e=58.0)
    qubit_kw = dict(c_q=60e-15, f_mu=4.32e9, kappa_mu=1e6)

    def driven(drive_f=4.32e9, p_mu=1e-9, rbw=50e3):
        return driven_spectrum(dev, (mode,), 1e4, 1e3, drive_f, p_mu, rbw, grid)

    calls = [
        ("photon_number", "p_on_chip", "nonnegative",
         lambda v: photon_number(dev, 4.32e9, v)),
        ("photon_number", "detuning", "finite",
         lambda v: photon_number(dev, v, 1e-4)),
        ("cooperativity", "n_c", "nonnegative",
         lambda v: cooperativity(dev, v, 8.4e6)),
        ("cooperativity", "gamma_m", "positive",
         lambda v: cooperativity(dev, 1e4, v)),
        ("backaction_rate", "n_c", "nonnegative",
         lambda v: backaction_rate(dev, v)),
        ("efficiencies", "gamma_m", "positive", lambda v: efficiencies(dev, v)),
        ("thermal_occupation", "f_m", "positive",
         lambda v: thermal_occupation(v, 4.0)),
        ("thermal_occupation", "temperature", "positive",
         lambda v: thermal_occupation(4.32e9, v)),
        ("steady_state_coherent_phonons", "p_mu", "nonnegative",
         lambda v: steady_state_coherent_phonons(mode, v, 4.32e9)),
        ("steady_state_coherent_phonons", "drive_f", "positive",
         lambda v: steady_state_coherent_phonons(mode, 1e-9, v)),
        ("gamma_me_from_phonons", "n_coh", "nonnegative",
         lambda v: gamma_me_from_phonons(v, 4.32e9, 8.4e6, 1e-9)),
        ("gamma_me_from_phonons", "f_m", "positive",
         lambda v: gamma_me_from_phonons(1e3, v, 8.4e6, 1e-9)),
        ("gamma_me_from_phonons", "gamma_m", "positive",
         lambda v: gamma_me_from_phonons(1e3, 4.32e9, v, 1e-9)),
        ("gamma_me_from_phonons", "p_mu", "positive",
         lambda v: gamma_me_from_phonons(1e3, 4.32e9, 8.4e6, v)),
        ("driven_spectrum", "rbw", "positive", lambda v: driven(rbw=v)),
        ("driven_spectrum", "drive_f", "positive", lambda v: driven(drive_f=v)),
        ("driven_spectrum", "p_mu", "nonnegative", lambda v: driven(p_mu=v)),
        ("calibrate_coherent_phonons", "rbw", "positive",
         lambda v: calibrate_coherent_phonons(
             Trace(grid, np.ones(grid.size), rbw=v), 1e3)),
        ("harmonic_spectrum", "f0", "positive",
         lambda v: harmonic_spectrum(
             LinkConfig(bits=(1, 0), rate=1e6, gamma_m=7.9e6), v)),
        ("fit_linewidth_vs_photons", "kappa_o", "positive",
         lambda v: fit_linewidth_vs_photons(pts, "blue", v)),
        ("fit_linewidth_vs_photons", "weights", "positive",
         lambda v: fit_linewidth_vs_photons(pts, "blue", 2.1e9,
                                            weights=[1.0, v, 1.0])),
        ("LinkConfig", "samples_per_bit", "integer",
         lambda v: LinkConfig(bits=(1, 0), rate=1e6, gamma_m=7.9e6,
                              samples_per_bit=v)),
        ("harmonic_spectrum", "n_periods", "integer",
         lambda v: harmonic_spectrum(
             LinkConfig(bits=(1, 0), rate=1e6, gamma_m=7.9e6), 0.5e6, v)),
        ("fit_lorentzian_multi", "n_peaks", "integer",
         lambda v: fit_lorentzian_multi(Trace(grid, np.ones(grid.size)), v)),
        ("SweepSpec.from_range", "count", "integer",
         lambda v: SweepSpec.from_range("pump.n_c", 1e3, 1e4, v, "linear",
                                        ["n_c"])),
    ]
    for name, rule in (("f", "positive"), ("gamma", "positive"),
                       ("g", "nonnegative"), ("gamma_e", "nonnegative"),
                       ("phi", "finite")):
        calls.append(("MechanicalMode", name, rule,
                      lambda v, n=name: MechanicalMode(**{**mode_kw, n: v})))
    for name in qubit_kw:
        calls.append(("QubitConfig", name, "positive",
                      lambda v, n=name: QubitConfig(**{**qubit_kw, n: v})))
    bad = {"positive": ("finite and > 0", [math.nan, math.inf, -math.inf,
                                           0.0, -1.0]),
           "nonnegative": ("finite and >= 0", [math.nan, math.inf, -math.inf,
                                               -1.0]),
           "finite": ("finite", [math.nan, math.inf, -math.inf]),
           "integer": ("an integer", [2.5, 200.0, "3"])}
    for fn, name, rule, call in calls:
        text, values = bad[rule]
        for v in values:
            yield pytest.param(call, name, text, v, id=f"{fn}-{name}-{v!r}")


@pytest.mark.parametrize("call,name,rule,value", _argument_cases())
def test_arguments_follow_the_record_range_rules(call, name, rule, value):
    # NaN and +-inf fail every rule, as they do for record fields
    with pytest.raises(ParameterError) as err:
        call(value)
    assert str(err.value) == f"{name} must be {rule} (got {value!r})"


def test_counts_take_numpy_integers():
    from transducersim import LinkConfig
    from transducersim.sweep import SweepSpec
    assert LinkConfig(bits=(1, 0), rate=1e6, gamma_m=7.9e6,
                      samples_per_bit=np.int32(200)).samples_per_bit == 200
    assert SweepSpec.from_range("pump.n_c", 1e3, 1e4, np.int64(3), "linear",
                                ["n_c"]).n_rows == 3


@pytest.mark.parametrize("temperature", [math.nan, math.inf, 0.0])
def test_thermal_occupation_rejects_non_finite_temperature(temperature):
    with pytest.raises(ParameterError, match="temperature"):
        thermal_occupation(4.32e9, temperature)


def test_kappa_oi_derived(table_dev):
    assert math.isclose(table_dev.kappa_oi, 2.1e9 - 0.99e9, rel_tol=1e-12)


def test_pump_state_consistency(table_dev):
    p_w = dbm_to_w(-7.9)
    n_good = photon_number(table_dev, 4.32e9, p_w)
    pump = PumpState(detuning=4.32e9, p_on_chip=p_w, n_c=n_good * 1.01)
    assert resolve_photon_number(table_dev, pump) == pump.n_c
    with pytest.raises(ParameterError):
        resolve_photon_number(
            table_dev,
            PumpState(detuning=4.32e9, p_on_chip=p_w, n_c=n_good * 1.5))
    with pytest.raises(ParameterError):
        PumpState(detuning=4.32e9)
