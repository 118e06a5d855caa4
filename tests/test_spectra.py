import math

import numpy as np
import pytest

from transducersim import (CODATA, FitError, MechanicalMode, ParameterError,
                           PumpState, Trace,
                           calibrate_coherent_phonons,
                           dbm_to_w, driven_spectrum, gamma_me_from_phonons,
                           s_oe_spectrum, sideband_rate,
                           steady_state_coherent_phonons, thermal_occupation,
                           thermal_spectrum, total_efficiency,
                           total_mech_linewidth)
from transducersim.core import DeviceParams

from conftest import reference_deposit_peak, relerr

N_TH_300K = 1446.4874967108869
# numpy 2 renamed trapz; CI also runs the declared floor, numpy 1.24
trapezoid = getattr(np, "trapezoid", None) or np.trapz


@pytest.fixture(scope="module")
def mode(dev):
    return MechanicalMode(f=dev.f_m, gamma=dev.gamma_mi, g=dev.g_om,
                          phi=0.0, gamma_e=dev.gamma_me)


def grid_around(f0, half_span, n):
    return np.linspace(f0 - half_span, f0 + half_span, n)


# ------------------------------------------------------------ thermal spectra

def test_thermal_area_matches_sideband_rate(dev, mode):
    grid = grid_around(mode.f, 50 * mode.gamma, 20001)
    tr = thermal_spectrum(dev, [mode], 1.0e4, N_TH_300K, grid)
    expected = N_TH_300K * sideband_rate(mode, 1.0e4, dev.kappa_o)
    area = trapezoid(tr.y, tr.x)
    assert relerr(area, expected) < 0.01


def test_thermal_additivity(dev, mode):
    grid = grid_around(mode.f, 20 * mode.gamma, 4001)
    single = thermal_spectrum(dev, [mode], 1.0e4, N_TH_300K, grid)
    double = thermal_spectrum(dev, [mode, mode], 1.0e4, N_TH_300K, grid)
    assert np.allclose(double.y, 2 * single.y, rtol=1e-12)

    other = MechanicalMode(f=mode.f + 40e6, gamma=5e6, g=8e4, gamma_e=10.0)
    apart_sum = thermal_spectrum(dev, [mode], 1.0e4, N_TH_300K, grid).y \
        + thermal_spectrum(dev, [other], 1.0e4, N_TH_300K, grid).y
    union = thermal_spectrum(dev, [mode, other], 1.0e4, N_TH_300K, grid)
    assert np.allclose(union.y, apart_sum, rtol=1e-12)


def test_thermal_peak_height_by_quadrature(dev, mode):
    # oracle: trapezoid integration of the synthesized trace fixes the
    # total rate; the peak density must then be 2*rate/(pi*gamma)
    grid = grid_around(mode.f, 50 * mode.gamma, 40001)
    tr = thermal_spectrum(dev, [mode], 1.0e4, N_TH_300K, grid)
    rate = trapezoid(tr.y, tr.x)
    assert relerr(tr.y.max(), 2 * rate / (np.pi * mode.gamma)) < 0.015


def test_thermal_area_converges_under_grid_refinement(dev, mode):
    rate = N_TH_300K * sideband_rate(mode, 1.0e4, dev.kappa_o)
    half_span = 200 * mode.gamma
    # analytic integral over the finite window, the quadrature limit
    expected = rate * (2 / np.pi) * math.atan(2 * half_span / mode.gamma)
    errs = []
    for n in (2001, 8001, 32001):
        grid = grid_around(mode.f, half_span, n)
        tr = thermal_spectrum(dev, [mode], 1.0e4, N_TH_300K, grid)
        errs.append(abs(trapezoid(tr.y, tr.x) - expected))
    assert errs[2] <= errs[1] <= errs[0]
    assert errs[2] / rate < 1e-6


# ---------------------------------------------------------- coherent phonons

def brute_force_phonons(mode, p_mu, drive_f, cycles_per_sample=64):
    """Independent oracle: RK4 integration of the driven mode equation
    db/dt = (i 2 pi f - pi gamma) b + sqrt(2 pi gamma_e) b_in(t) with the
    carrier resolved, run to steady state; returns |b|^2."""
    flux_amp = math.sqrt(p_mu / (CODATA.h * drive_f))
    dt = 1.0 / (mode.f * cycles_per_sample)
    total = 60.0 / (math.pi * mode.gamma)
    n = int(total / dt)
    pole = 1j * 2 * np.pi * mode.f - np.pi * mode.gamma
    feed = math.sqrt(2 * np.pi * mode.gamma_e) * flux_amp
    omega_d = 2 * np.pi * drive_f

    def rhs(t, b):
        return pole * b + feed * np.exp(1j * omega_d * t)

    b, t = 0.0 + 0.0j, 0.0
    for _ in range(n):
        k1 = rhs(t, b)
        k2 = rhs(t + dt / 2, b + dt / 2 * k1)
        k3 = rhs(t + dt / 2, b + dt / 2 * k2)
        k4 = rhs(t + dt, b + dt * k3)
        b += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return abs(b) ** 2


def test_steady_state_phonons_against_ode_oracle(mode):
    p_mu = dbm_to_w(-22.0)          # -20 dBm source minus 2 dB line loss
    closed = steady_state_coherent_phonons(mode, p_mu, mode.f)
    ode = brute_force_phonons(mode, p_mu, mode.f)
    assert relerr(closed, ode) < 2e-3
    assert relerr(closed, 1.15e6) < 0.01


def test_steady_state_phonons_off_resonance_filter(mode):
    p_mu = 1e-6
    drive = mode.f + 3 * mode.gamma
    closed = steady_state_coherent_phonons(mode, p_mu, drive)
    ode = brute_force_phonons(mode, p_mu, drive)
    assert relerr(closed, ode) < 5e-3


def test_driven_zero_power_equals_thermal(dev, mode):
    grid = grid_around(mode.f, 20 * mode.gamma, 4001)
    th = thermal_spectrum(dev, [mode], 1.0e4, N_TH_300K, grid)
    dr = driven_spectrum(dev, [mode], 1.0e4, N_TH_300K, mode.f, 0.0, 50e3, grid)
    assert np.array_equal(th.y, dr.y)


def test_driven_coherent_area_linear_in_power(dev, mode):
    grid = grid_around(mode.f, 20 * mode.gamma, 9601)
    th = thermal_spectrum(dev, [mode], 1.0e4, N_TH_300K, grid).y
    p0 = 1e-6
    areas = []
    for p_mu in (p0, 10 * p0):      # a 10 dB step
        dr = driven_spectrum(dev, [mode], 1.0e4, N_TH_300K, mode.f, p_mu,
                             50e3, grid)
        coherent = dr.y - th
        cells = dr.cell_widths()
        areas.append(float(np.sum(coherent * cells)))
        # thermal part untouched outside the drive bin
        mask = np.abs(grid - mode.f) > 100e3
        assert np.array_equal(dr.y[mask], th[mask])
    assert relerr(areas[1], 10 * areas[0]) < 1e-9


def _rectangles(f, rng):
    """(center, width) of rectangles inside the grid, across either end,
    over all of it, and wholly outside it; every center is above 0 on
    the grids of _random_grid, which start above twice their span."""
    lo, hi = f[0], f[-1]
    span = max(hi - lo, 1.0)
    inside = [(rng.uniform(lo, hi), rng.uniform(0.0, 0.2) * span + 1e-3)
              for _ in range(4)]
    return inside + [
        (lo, 0.5 * span), (hi, 0.5 * span), (0.5 * (lo + hi), 3.0 * span),
        (lo - span, 0.5 * span), (hi + span, 0.5 * span),
        (hi + 0.5 * span, span),        # its low edge is the grid's last point
    ]


def _random_grid(kind, rng):
    if kind == "one_cell":
        return np.array([rng.uniform(2.0, 3.0)])
    if kind == "two_cells":
        return np.sort(rng.uniform(2.0, 3.0, 2))
    if kind == "uneven":
        return np.unique(rng.uniform(2.0, 3.0, 400) * 10.0 ** rng.uniform(0, 9))
    if kind == "ulp_cell":          # neighbours an ulp apart
        f = np.unique(rng.uniform(2.0, 3.0, 50))
        f[-1] = np.nextafter(f[-2], np.inf)
        return f
    return np.linspace(4.2e9, 4.4e9, 2001) + rng.uniform(0.0, 1e5)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["one_cell", "two_cells", "uneven",
                                  "ulp_cell", "ghz"])
def test_drive_peak_matches_the_whole_grid_formula(dev, mode, kind, seed):
    rng = np.random.default_rng(seed)
    f = _random_grid(kind, rng)
    modes = [mode, MechanicalMode(f=mode.f + 40e6, gamma=5e6, g=8e4,
                                  gamma_e=10.0)]
    p_mu = rng.uniform(1e-12, 1e-6)
    thermal = thermal_spectrum(dev, modes, 1.0e4, N_TH_300K, f).y
    for center, width in _rectangles(f, rng):
        unit = np.zeros(f.size)
        reference_deposit_peak(f, unit, center, width, 1.0)
        if not unit.any():                      # the rectangle misses
            with pytest.raises(ParameterError, match="outside the grid's"):
                driven_spectrum(dev, modes, 1.0e4, N_TH_300K, center, p_mu,
                                width, f)
            continue
        want = thermal.copy()
        for m in modes:
            reference_deposit_peak(
                f, want, center, width,
                steady_state_coherent_phonons(m, p_mu, center)
                * sideband_rate(m, 1.0e4, dev.kappa_o))
        got = driven_spectrum(dev, modes, 1.0e4, N_TH_300K, center, p_mu,
                              width, f).y
        assert got.tobytes() == want.tobytes(), (center, width)


@pytest.mark.parametrize("g, gamma_e", [(130e3, 58.0), (130e3, 0.0),
                                        (0.0, 58.0)])
def test_drive_peak_with_a_non_finite_area_names_p_mu(dev, g, gamma_e):
    # the drive's photon flux overflows: an inf area, or inf * 0 = nan for
    # a mode with no feedline decay or no optomechanical coupling
    mode = MechanicalMode(f=dev.f_m, gamma=dev.gamma_mi, g=g, gamma_e=gamma_e)
    grid = grid_around(dev.f_m, 20e6, 401)
    with pytest.raises(ParameterError) as err:
        driven_spectrum(dev, [mode], 1.0e4, N_TH_300K, dev.f_m, 1e300, 50e3,
                        grid)
    n_coh, area = ("nan", "nan") if gamma_e == 0 else \
        ("inf", "nan" if g == 0 else "inf")
    assert str(err.value) == (
        f"p_mu = 1e+300 W gives the mode at {dev.f_m!r} Hz n_coh = {n_coh} "
        f"coherent phonons and a drive peak area of {area}, which is not "
        "finite")


@pytest.mark.parametrize("drive_f, rbw", [
    (1e300, 50e3), (1e3, 50e3),
    (4.2e9 - 1e6 - 5e6, 10e6),     # its high edge is the grid's first edge
    (4.4e9 + 1e6 + 5e6, 10e6),     # its low edge is the grid's last edge
])
def test_drive_peak_off_the_grid_is_a_parameter_error(dev, mode, drive_f,
                                                      rbw):
    grid = np.linspace(4.2e9, 4.4e9, 101)       # cells 2 MHz wide
    with pytest.raises(ParameterError) as err:
        driven_spectrum(dev, [mode], 1.0e4, N_TH_300K, drive_f, 1e-6, rbw,
                        grid)
    assert str(err.value) == (
        f"drive peak at drive_f = {drive_f!r} Hz, rbw = {rbw!r} Hz lies "
        "outside the grid's cells (4199000000 to 4401000000 Hz)")


def test_drive_peak_across_a_grid_end_is_kept(dev, mode):
    grid = np.linspace(4.2e9, 4.4e9, 101)
    th = thermal_spectrum(dev, [mode], 1.0e4, N_TH_300K, grid).y
    dr = driven_spectrum(dev, [mode], 1.0e4, N_TH_300K, 4.2e9 - 1e6 - 4e6,
                         1e-6, 10e6, grid).y
    assert dr[0] > th[0] and np.array_equal(dr[1:], th[1:])


# grids whose ends lie near the float limit; pytest turns every numpy
# warning into an error, so each call below also emits none
@pytest.mark.parametrize("grid", [
    [-1e308, 0.0, 4.32e9, 1e308],
    [-1.7e308, 0.0, 4.32e9, 1.7e308],   # both end cells are infinitely wide
])
def test_spectra_at_the_float_limit_are_finite(dev, mode, grid):
    pump = PumpState(detuning=dev.f_m, n_c=1.0e4)
    for y in (thermal_spectrum(dev, [mode], 1.0e4, 10.0, grid).y,
              driven_spectrum(dev, [mode], 1.0e4, 10.0, dev.f_m, 1e-9, 50e3,
                              grid).y,
              s_oe_spectrum(dev, [mode], pump, grid).y):
        assert y[0] == y[-1] == 0.0 and y[2] > 0.0


@pytest.mark.parametrize("grid, drive_f", [
    ([-1e308, 1e308], 4.32e9),                  # f[1] - f[0] overflows
    ([-1.7e308, 0.0, 4.32e9, 1.7e308], 1e308),  # in the infinite end cell
    ([1.5e308, 1.6e308, 1.7e308], 1.6e308),     # the midpoints overflow
])
def test_drive_peak_in_a_cell_of_no_finite_width_is_an_error(dev, mode, grid,
                                                             drive_f):
    with pytest.raises(ParameterError) as err:
        driven_spectrum(dev, [mode], 1.0e4, 10.0, drive_f, 1e-9, 50e3, grid)
    assert str(err.value) == (
        f"drive peak at drive_f = {drive_f!r} Hz, rbw = 50000.0 Hz overlaps a "
        f"cell of no finite width on the grid from {grid[0]:.10g} to "
        f"{grid[-1]:.10g} Hz")


# ------------------------------------------------------- thermal-peak scaling

def synth_driven(dev, gamma_op, n_c, p_mu, rbw=50e3, points=9601,
                 noise_snr_db=None, seed=0):
    mode = MechanicalMode(f=dev.f_m, gamma=gamma_op, g=dev.g_om,
                          gamma_e=dev.gamma_me)
    grid = grid_around(dev.f_m, 60e6, points)
    tr = driven_spectrum(dev, [mode], n_c, N_TH_300K, dev.f_m, p_mu, rbw, grid)
    if noise_snr_db is None:
        return tr, mode
    thermal_peak = 2 * N_TH_300K * sideband_rate(mode, n_c, dev.kappa_o) \
        / (np.pi * gamma_op)
    sigma = thermal_peak * 10 ** (-noise_snr_db / 20)
    rng = np.random.default_rng(seed)
    from transducersim import Trace
    return Trace(tr.x, tr.y + sigma * rng.standard_normal(tr.x.size),
                 tr.x_unit, tr.y_unit, rbw=tr.rbw), mode


def test_calibration_round_trip_with_noise(dev):
    n_c = 1.0e4
    gamma_op = total_mech_linewidth(dev, n_c, "blue")
    p_mu = dbm_to_w(-22.0)
    tr, mode = synth_driven(dev, gamma_op, n_c, p_mu, noise_snr_db=25, seed=3)
    cal = calibrate_coherent_phonons(tr, N_TH_300K)
    truth = steady_state_coherent_phonons(mode, p_mu, dev.f_m)
    assert cal.significant
    assert relerr(cal.n_coh, truth) < 0.02


def test_calibration_zero_drive(dev):
    n_c = 1.0e4
    gamma_op = total_mech_linewidth(dev, n_c, "blue")
    tr, mode = synth_driven(dev, gamma_op, n_c, 0.0, noise_snr_db=30, seed=4)
    cal = calibrate_coherent_phonons(tr, N_TH_300K)
    assert not cal.significant
    # bounded by the noise floor: far below any real drive
    assert cal.n_coh < 0.05 * N_TH_300K


def test_calibration_recovers_gamma_me(dev):
    n_c = 1.0e4
    gamma_op = total_mech_linewidth(dev, n_c, "blue")
    p_mu = dbm_to_w(-22.0)
    tr, mode = synth_driven(dev, gamma_op, n_c, p_mu, noise_snr_db=30, seed=5)
    cal = calibrate_coherent_phonons(tr, N_TH_300K)
    gamma_me = gamma_me_from_phonons(cal.n_coh, dev.f_m, gamma_op, p_mu)
    assert relerr(gamma_me, 58.0) < 0.05


@pytest.mark.parametrize("n_coh, f_m, gamma_m, p_mu", [
    (1e300, 1e300, 8.4e6, 1e-3),        # the product overflows
    (1.0, 4.32e9, 1e200, 1e-3),         # gamma_m ** 2 overflows
    (1e3, 4.32e9, 8.4e6, 5e-324),       # the quotient overflows
])
def test_gamma_me_that_overflows_names_the_inputs(n_coh, f_m, gamma_m, p_mu):
    with pytest.raises(ParameterError) as err:
        gamma_me_from_phonons(n_coh, f_m, gamma_m, p_mu)
    assert str(err.value) == (
        f"gamma_me is not finite at n_coh = {n_coh!r}, f_m = {f_m!r} Hz, "
        f"gamma_m = {gamma_m!r} Hz, p_mu = {p_mu!r} W")


def test_calibration_rejects_featureless_data(dev):
    from transducersim import Trace
    rng = np.random.default_rng(6)
    grid = grid_around(dev.f_m, 60e6, 2001)
    tr = Trace(grid, np.abs(rng.standard_normal(grid.size)), rbw=50e3)
    with pytest.raises(FitError):
        calibrate_coherent_phonons(tr, N_TH_300K)


def _calibration_input(case, dev):
    f = grid_around(dev.f_m, 60e6, 2001)
    thermal = (dev.gamma_mi / (2 * np.pi)) \
        / ((f - dev.f_m) ** 2 + (dev.gamma_mi / 2) ** 2)
    return {
        "no_rbw": Trace(f, thermal),
        "15_points": Trace(f[:15], thermal[:15], rbw=50e3),
        "window_covers_the_trace": Trace(f[:20], thermal[:20], rbw=1e9),
        "thermal_dip": Trace(f, 1e-6 - thermal, rbw=50e3),
    }[case]


@pytest.mark.parametrize("case, error, message", [
    ("no_rbw", ParameterError, "rbw must be finite and > 0 (got None)"),
    ("15_points", FitError,
     "spectrum too short to resolve a Lorentzian and a peak"),
    ("window_covers_the_trace", FitError,
     "drive peak window covers the whole trace; peaks unresolvable"),
    ("thermal_dip", FitError,
     "residual too large: thermal peak not resolvable"),
])
def test_calibration_names_the_spectrum_it_rejects(dev, case, error, message):
    with pytest.raises(error) as err:
        calibrate_coherent_phonons(_calibration_input(case, dev), N_TH_300K)
    assert str(err.value) == message


@pytest.mark.parametrize("rbw", [math.nan, math.inf, 0.0, -50e3])
def test_rbw_must_be_finite_and_positive(dev, rbw):
    # an infinite rbw spread the drive peak to nothing, and a NaN one made
    # the calibration report zero coherent phonons
    n_c = 1.0e4
    gamma_op = total_mech_linewidth(dev, n_c, "blue")
    with pytest.raises(ParameterError, match="rbw must be finite and > 0"):
        synth_driven(dev, gamma_op, n_c, dbm_to_w(-22.0), rbw=rbw)
    tr, _ = synth_driven(dev, gamma_op, n_c, dbm_to_w(-22.0))
    with pytest.raises(ParameterError, match="rbw must be finite and > 0"):
        calibrate_coherent_phonons(Trace(tr.x, tr.y, rbw=rbw), N_TH_300K)


# ------------------------------------------------------------------ s_oe

def test_soe_single_mode_matches_conversion_efficiency(dev):
    n_c = 1.0e4
    pump = PumpState(detuning=dev.f_m, n_c=n_c)
    gamma_op = total_mech_linewidth(dev, n_c, "blue")
    mode = MechanicalMode(f=dev.f_m, gamma=gamma_op, g=dev.g_om,
                          gamma_e=dev.gamma_me)
    tr = s_oe_spectrum(dev, [mode], pump, np.array([dev.f_m]))
    eta = total_efficiency(dev, pump, "blue")
    assert relerr(float(tr.y[0]) ** 2, eta) < 0.01
    assert relerr(float(tr.y[0]) ** 2, 1.5e-7) < 0.10


def test_soe_destructive_interference_degenerate_modes(dev):
    pump = PumpState(detuning=dev.f_m, n_c=1.0e4)
    a = MechanicalMode(f=dev.f_m, gamma=8e6, g=1e5, phi=0.0, gamma_e=60.0)
    b = MechanicalMode(f=dev.f_m, gamma=8e6, g=1e5, phi=np.pi, gamma_e=60.0)
    both = s_oe_spectrum(dev, [a, b], pump, np.array([dev.f_m]))
    single = s_oe_spectrum(dev, [a], pump, np.array([dev.f_m]))
    assert both.y[0] < 1e-10 * single.y[0]


def test_soe_interference_dip_between_peaks(dev):
    # Between two straddling modes the susceptibility phase roll makes
    # the two contributions arrive in anti-phase, carving a dip deeper
    # than either single-mode tail; flipping one mode phase by pi turns
    # the same midpoint constructive.
    pump = PumpState(detuning=dev.f_m, n_c=1.0e4)
    a = MechanicalMode(f=dev.f_m - 30e6, gamma=8e6, g=1e5, phi=0.0, gamma_e=60.0)
    b = MechanicalMode(f=dev.f_m + 30e6, gamma=8e6, g=1e5, phi=0.0, gamma_e=60.0)
    grid = grid_around(dev.f_m, 80e6, 4001)
    both = s_oe_spectrum(dev, [a, b], pump, grid).y
    only_a = s_oe_spectrum(dev, [a], pump, grid).y
    only_b = s_oe_spectrum(dev, [b], pump, grid).y
    mid = np.abs(grid - dev.f_m) < 2e6
    assert both[mid].min() < 0.5 * only_a[mid].min()
    assert both[mid].min() < 0.5 * only_b[mid].min()
    # contributions really are anti-phased at the dip
    from transducersim import mech_susceptibility
    za = np.exp(1j * a.phi) * mech_susceptibility(dev.f_m, a.f, a.gamma)
    zb = np.exp(1j * b.phi) * mech_susceptibility(dev.f_m, b.f, b.gamma)
    assert np.cos(np.angle(za) - np.angle(zb)) < -0.9

    flipped = MechanicalMode(f=b.f, gamma=b.gamma, g=b.g, phi=np.pi,
                             gamma_e=b.gamma_e)
    constructive = s_oe_spectrum(dev, [a, flipped], pump, grid).y
    assert constructive[mid].min() > max(only_a[mid].min(), only_b[mid].min())


def test_soe_global_phase_invariance(dev):
    pump = PumpState(detuning=dev.f_m, n_c=1.0e4)
    modes = [MechanicalMode(f=dev.f_m - 20e6, gamma=8e6, g=1e5, phi=0.3,
                            gamma_e=60.0),
             MechanicalMode(f=dev.f_m + 20e6, gamma=6e6, g=7e4, phi=2.1,
                            gamma_e=40.0)]
    shifted = [MechanicalMode(f=m.f, gamma=m.gamma, g=m.g, phi=m.phi + 1.234,
                              gamma_e=m.gamma_e) for m in modes]
    grid = grid_around(dev.f_m, 60e6, 2001)
    assert np.allclose(s_oe_spectrum(dev, modes, pump, grid).y,
                       s_oe_spectrum(dev, shifted, pump, grid).y, rtol=1e-12)


def test_soe_bounded_by_external_efficiencies(dev):
    # red-detuned, C_om <= 1, physically consistent operating linewidths
    rng = np.random.default_rng(7)
    eta_o = dev.kappa_oe / dev.kappa_o
    for _ in range(25):
        g = rng.uniform(2e4, 4e5)
        gamma_e = rng.uniform(1.0, 1e4)
        gamma_bare = rng.uniform(1e6, 4e7) + gamma_e
        n_max = dev.kappa_o * gamma_bare / (4 * g ** 2)
        n_c = rng.uniform(0.0, n_max)          # keeps C_om <= 1
        gamma_op = gamma_bare + 4 * n_c * g ** 2 / dev.kappa_o
        mode = MechanicalMode(f=dev.f_m, gamma=gamma_op, g=g, gamma_e=gamma_e)
        pump = PumpState(detuning=-dev.f_m, n_c=n_c)
        grid = grid_around(dev.f_m, 100e6, 801)
        tr = s_oe_spectrum(dev, [mode], pump, grid)
        assert (tr.y ** 2).max() <= dev.eta_oc * eta_o * (1 + 1e-9)


def test_soe_empty_modes_error(dev):
    with pytest.raises(ParameterError):
        s_oe_spectrum(dev, [], PumpState(detuning=dev.f_m, n_c=1e4),
                      np.array([dev.f_m]))
