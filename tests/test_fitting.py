import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from transducersim import (FitError, MechanicalMode, ParameterError, Trace,
                           cli, fitting, fit_linewidth_vs_photons,
                           fit_lorentzian_multi, fit_optical_dip,
                           fit_phase_detuning, fit_ring, mech_susceptibility,
                           sideband_rate, thermal_spectrum, write_trace)

from conftest import (reference_dip, reference_lorentz, reference_phase,
                      relerr)

F_O, KAPPA_O, KAPPA_OE = 194.9e12, 2.1e9, 0.99e9


def dip_trace(f_o=F_O, kappa_o=KAPPA_O, kappa_oe=KAPPA_OE, noise=0.0, seed=0,
              n=4001, span=3.0):
    f = np.linspace(f_o - span * kappa_o, f_o + span * kappa_o, n)
    d2 = (1.0 - 2.0 * kappa_oe / kappa_o) ** 2
    r = (d2 * kappa_o ** 2 + 4 * (f - f_o) ** 2) \
        / (kappa_o ** 2 + 4 * (f - f_o) ** 2)
    if noise:
        r = r + noise * np.random.default_rng(seed).standard_normal(f.size)
    return Trace(f, r)


def phase_traces(detuning, noise=0.0, seed=0, n=2001, amp=0.7 - 0.2j):
    f = np.linspace(-8e9, 8e9, n)
    z = amp * (2 * np.pi * KAPPA_OE * mech_susceptibility(f, detuning, KAPPA_O))
    if noise:
        rng = np.random.default_rng(seed)
        scale = noise * np.max(np.abs(z))
        z = z + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return Trace(f, np.abs(z)), Trace(f, np.angle(z))


def linewidth_points(g_om=130e3, gamma_mi=8.4e6, kappa_o=KAPPA_O, noise=0.0,
                     seed=0, n=12, n_max=2.0e5):
    n_c = np.geomspace(1e4, n_max, n)
    gam = gamma_mi - 4 * n_c * g_om ** 2 / kappa_o
    if noise:
        gam = gam * (1 + noise * np.random.default_rng(seed).standard_normal(n))
    return np.column_stack([n_c, gam])


# ------------------------------------------------------------------ dip fits

def test_dip_round_trip_with_noise():
    tr = dip_trace(noise=0.01, seed=1)
    fit = fit_optical_dip(tr, branch="under")
    assert fit.converged
    assert relerr(fit.params["f_o"], F_O) < 0.02
    assert relerr(fit.params["kappa_o"], KAPPA_O) < 0.02
    assert relerr(fit.params["kappa_oe"], KAPPA_OE) < 0.02


def test_dip_critical_coupling_reaches_zero():
    tr = dip_trace(kappa_oe=KAPPA_O / 2)
    assert tr.y.min() < 1e-12
    fit = fit_optical_dip(tr)
    assert fit.params["depth"] < 1e-4
    assert relerr(fit.params["kappa_oe_under"], KAPPA_O / 2) < 1e-3


def test_dip_reports_both_branches():
    fit = fit_optical_dip(dip_trace())
    assert "kappa_oe" not in fit.params
    under, over = fit.params["kappa_oe_under"], fit.params["kappa_oe_over"]
    assert relerr(under + over, KAPPA_O) < 1e-9
    assert relerr(under, KAPPA_OE) < 1e-9
    over_fit = fit_optical_dip(dip_trace(), branch="over")
    assert relerr(over_fit.params["kappa_oe"], KAPPA_O - KAPPA_OE) < 1e-9


def test_dip_intrinsic_quality_factor():
    fit = fit_optical_dip(dip_trace(noise=0.005, seed=2), branch="under")
    q_oi = fit.params["f_o"] / fit.params["kappa_oi"]
    assert relerr(q_oi, F_O / (KAPPA_O - KAPPA_OE)) < 0.02


def test_dip_rejects_a_bad_branch_before_it_fits(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("the fit ran")

    monkeypatch.setattr(fitting, "_gauss_newton", no_fit)
    with pytest.raises(ParameterError, match="'sideways'"):
        fit_optical_dip(dip_trace(), branch="sideways")


def test_dip_residual_not_worse_than_branch_initializations():
    tr = dip_trace(noise=0.01, seed=3)
    fit = fit_optical_dip(tr, branch="under")

    def cost(kappa_oe):
        d2 = (1.0 - 2.0 * kappa_oe / KAPPA_O) ** 2
        model = (d2 * KAPPA_O ** 2 + 4 * (tr.x - F_O) ** 2) \
            / (KAPPA_O ** 2 + 4 * (tr.x - F_O) ** 2)
        return math.sqrt(float(np.mean((model - tr.y) ** 2)))

    for start in (KAPPA_OE, KAPPA_O - KAPPA_OE):   # under / over coupled
        assert fit.residual_norm <= cost(start) + 1e-15


def test_dip_requires_a_dip():
    f = np.linspace(-1e9, 1e9, 512)
    with pytest.raises(FitError):
        fit_optical_dip(Trace(f, np.ones_like(f)))


# --------------------------------------------------------------- phase fits

def test_phase_detuning_round_trip(dev):
    mag, ph = phase_traces(4.32e9, noise=0.01, seed=4)
    fit = fit_phase_detuning(mag, ph, dev)
    assert fit.converged
    assert relerr(fit.params["detuning"], 4.32e9) < 0.01


def test_phase_detuning_zero_is_antisymmetric(dev):
    mag, ph = phase_traces(0.0, amp=1.0)   # real gain: no constant phase shift
    half = ph.y[ph.x > 0]
    assert np.allclose(ph.y[ph.x < 0][::-1], -half, atol=1e-9)
    fit = fit_phase_detuning(mag, ph, dev)
    assert abs(fit.params["detuning"]) < 0.005 * KAPPA_O


def test_phase_detuning_sign_flip_mirrors(dev):
    mag_p, ph_p = phase_traces(4.32e9, noise=0.005, seed=5)
    mag_n, ph_n = phase_traces(-4.32e9, noise=0.005, seed=5)
    fit_p = fit_phase_detuning(mag_p, ph_p, dev)
    fit_n = fit_phase_detuning(mag_n, ph_n, dev)
    assert fit_p.params["detuning"] > 0 > fit_n.params["detuning"]
    assert relerr(fit_n.params["detuning"], -4.32e9) < 0.01


def test_phase_detuning_needs_one_axis(dev):
    # one 30 kHz sample off at 4.3 GHz is within np.allclose's default rtol
    f = np.linspace(4.0e9, 4.6e9, 20001)
    z = 2 * np.pi * KAPPA_OE * mech_susceptibility(f, 4.32e9, KAPPA_O)
    with pytest.raises(ParameterError, match="^magnitude and phase traces "
                       "must share one axis$"):
        fit_phase_detuning(Trace(f, np.abs(z)),
                           Trace(f + (f[1] - f[0]), np.angle(z)), dev)


def test_phase_detuning_narrow_span_flagged(dev):
    f = np.linspace(4.32e9 - 0.3 * KAPPA_O, 4.32e9 + 0.3 * KAPPA_O, 301)
    z = 2 * np.pi * KAPPA_OE * mech_susceptibility(f, 4.32e9, KAPPA_O)
    fit = fit_phase_detuning(Trace(f, np.abs(z)), Trace(f, np.angle(z)), dev)
    assert any("span" in note for note in fit.notes)


# ----------------------------------------------------------- linewidth fits

def test_linewidth_round_trip_with_noise():
    fit = fit_linewidth_vs_photons(linewidth_points(noise=0.02, seed=6),
                                   "blue", KAPPA_O)
    assert relerr(fit.params["g_om"], 130e3) < 0.03
    assert relerr(fit.params["gamma_mi"], 8.4e6) < 0.03


def test_linewidth_rank_deficiency():
    pts = np.array([[1e4, 8.0e6], [1e4, 8.1e6], [1e4, 8.2e6]])
    with pytest.raises(FitError):
        fit_linewidth_vs_photons(pts, "blue", KAPPA_O)


def test_linewidth_rank_deficient_at_large_n_c():
    # lstsq finds rank 1 and returned gamma_mi = 1.5e-24 Hz
    pts = np.array([[1e15, 8.4e6], [2e15, 8.3e6], [3e15, 8.1e6]])
    with pytest.raises(FitError, match=r"^rank-deficient design: over n_c "
                       r"1e\+15 to 3e\+15 the slope and the intercept "
                       r"cannot be told apart$"):
        fit_linewidth_vs_photons(pts, "red", 2.11e9)


def test_fit_linewidth_rank_deficient_at_huge_n_c_exits_3(tmp_path, capsys):
    # X^T X overflowed: a warning, then gamma_mi = 0 +/- 0 and exit 0
    path = tmp_path / "points.csv"
    path.write_text("n_c,gamma_hz\n1e200,8.4e6\n2e200,8.3e6\n3e200,8.1e6\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["fit", "linewidth", "--points", str(path), "--sign",
                         "red", "--kappa-o", "2.11e9"]) == 3
    assert capsys.readouterr() == (
        "", "fit error: rank-deficient design: over n_c 1e+200 to 3e+200 the "
        "slope and the intercept cannot be told apart\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_linewidth_rejects_non_finite_points_and_weights(bad):
    pts = linewidth_points()
    broken = pts.copy()
    broken[1, 0] = bad
    with pytest.raises(ParameterError, match="finite"):
        fit_linewidth_vs_photons(broken, "blue", KAPPA_O)
    weights = np.ones(len(pts))
    weights[1] = bad
    with pytest.raises(ParameterError, match="finite"):
        fit_linewidth_vs_photons(pts, "blue", KAPPA_O, weights=weights)


def test_linewidth_zero_slope():
    pts = np.array([[1e4, 8.4e6], [5e4, 8.4e6], [1e5, 8.4e6]])
    fit = fit_linewidth_vs_photons(pts, "blue", KAPPA_O)
    assert fit.params["g_om"] == 0.0
    assert math.isclose(fit.params["gamma_mi"], 8.4e6, rel_tol=1e-12)


def test_linewidth_sign_mismatch():
    pts = linewidth_points()            # blue-detuned narrowing
    with pytest.raises(FitError):
        fit_linewidth_vs_photons(pts, "red", KAPPA_O)


def test_linewidth_uncertainties_follow_the_least_squares_rule():
    # cov = |r|^2 / (m - 2) (X^T X)^-1 on the (slope, gamma_mi) rows and rms
    # sqrt(|r|^2 / m), computed here from the weighted design rather than
    # taken from the fitter
    pts = linewidth_points(noise=0.02, seed=6)
    sw = np.sqrt(np.linspace(0.5, 2.0, len(pts)))
    fit = fit_linewidth_vs_photons(pts, "blue", KAPPA_O, weights=sw ** 2)
    X = np.column_stack([pts[:, 0], np.ones(len(pts))]) * sw[:, None]
    r = X @ [fit.params["slope"], fit.params["intercept"]] - pts[:, 1] * sw
    cost, m = float(r @ r), len(pts)
    assert fit.param_order == ("g_om", "gamma_mi", "slope")
    assert fit.residual_norm == pytest.approx(math.sqrt(cost / m), rel=1e-9)
    rows = [fit.param_order.index(name) for name in ("slope", "gamma_mi")]
    np.testing.assert_allclose(fit.cov[np.ix_(rows, rows)],
                               cost / (m - 2) * np.linalg.inv(X.T @ X),
                               rtol=1e-6)
    assert fit.stderr["slope"] == pytest.approx(math.sqrt(fit.cov[2, 2]))
    assert fit.stderr["gamma_mi"] == pytest.approx(math.sqrt(fit.cov[1, 1]))


def test_linewidth_scale_consistency():
    pts = linewidth_points(noise=0.01, seed=7)
    fit1 = fit_linewidth_vs_photons(pts, "blue", KAPPA_O)
    scaled = pts.copy()
    s = 4.0
    scaled[:, 0] *= s
    fit2 = fit_linewidth_vs_photons(scaled, "blue", KAPPA_O)
    assert relerr(fit2.params["slope"], fit1.params["slope"] / s) < 1e-9
    assert relerr(fit2.params["g_om"] * math.sqrt(s), fit1.params["g_om"]) < 1e-9
    assert relerr(fit2.params["gamma_mi"], fit1.params["gamma_mi"]) < 1e-9


# ---------------------------------------------------------- Lorentzian fits

def lorentz_trace(peaks, bg=3.0, noise=0.0, seed=0, span=(4.2e9, 4.45e9),
                  n=3001, slope=0.0):
    x = np.linspace(*span, n)
    y = bg + slope * (x - x.mean())
    for c, g, a in peaks:
        y = y + a * (g / 2 / np.pi) / ((x - c) ** 2 + (g / 2) ** 2)
    if noise:
        rng = np.random.default_rng(seed)
        y = y + noise * (np.max(y) - bg) * rng.standard_normal(n)
    return Trace(x, y)


def test_lorentzian_single_peak_with_background():
    true = (4.32e9, 8.4e6, 5e9)
    fit = fit_lorentzian_multi(lorentz_trace([true], noise=0.01, seed=8), 1)
    assert fit.converged
    assert relerr(fit.params["f_1"], true[0]) < 0.01
    assert relerr(fit.params["gamma_1"], true[1]) < 0.01
    assert relerr(fit.params["area_1"], true[2]) < 0.01
    assert abs(fit.params["bg0"] - 3.0) < 0.1


def test_lorentzian_background_only():
    rng = np.random.default_rng(9)
    x = np.linspace(0, 1e9, 1001)
    y = 2.0 + 0.05 * rng.standard_normal(x.size)
    fit = fit_lorentzian_multi(Trace(x, y), 0)
    assert fit.converged
    assert abs(fit.params["bg0"] - 2.0) < 0.01
    assert relerr(fit.residual_norm, 0.05) < 0.15


def test_lorentzian_linear_background(solved):
    true = (4.32e9, 8.4e6, 5e9)
    tr = lorentz_trace([true], noise=0.005, seed=10, slope=2e-8)
    fit = fit_lorentzian_multi(tr, 1, background="linear")
    assert fit.converged
    assert relerr(fit.params["area_1"], true[2]) < 0.02
    assert relerr(fit.params["bg1"], 2e-8) < 0.1
    # cov is in the units of params: bg1 per x-unit, not per span
    span = tr.x[-1] - tr.x[0]
    assert fit.param_order[-1] == "bg1"
    assert fit.cov[-1, -1] == pytest.approx(solved[-1].cov[-1, -1] / span ** 2,
                                            rel=1e-12)
    assert fit.cov[-1, :-1] == pytest.approx(solved[-1].cov[-1, :-1] / span,
                                             rel=1e-12)


def test_lorentzian_linear_background_whose_midpoint_overflows(tmp_path,
                                                              capsys):
    # the span 7e307 is finite, but the ends' sum is not: u = (f - mid) /
    # span would be -inf, and the fit's first cost nan
    tr = Trace(np.array([1e308, 1.5e308, 1.7e308]), np.array([1.0, 2.0, 1.0]))
    message = ("the midpoint of the trace's x ends 1e+308 and 1.7e+308 "
               "overflows, so a linear background cannot be fitted")
    with pytest.raises(ParameterError) as err:
        fit_lorentzian_multi(tr, 0, "linear")
    assert str(err.value) == message
    write_trace(tr, tmp_path / "far.csv")
    assert cli.main(["fit", "lorentz", "--trace", str(tmp_path / "far.csv"),
                     "--n-peaks", "0", "--background", "linear"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert fit_lorentzian_multi(tr, 0).converged   # a constant never reads it


def test_lorentzian_reference_background():
    true = (4.32e9, 8.4e6, 5e9)
    tr = lorentz_trace([true], bg=7.5)
    reference = Trace(tr.x, np.full(tr.x.size, 7.5))
    fit = fit_lorentzian_multi(tr, 1, background=reference)
    assert fit.converged
    assert relerr(fit.params["area_1"], true[2]) < 1e-6
    assert abs(fit.params["bg0"]) < 1e-6 * true[2]


@pytest.mark.parametrize("span", [(4.21e9, 4.45e9), (4.2e9, 4.44e9),
                                  (4.0e9, 4.05e9)],
                         ids=["starts_late", "ends_early", "disjoint"])
def test_lorentzian_reference_must_cover_the_trace(span):
    # np.interp holds a reference's end value past its span: a reference
    # that does not reach both trace ends is an error, not a flat extension
    tr = lorentz_trace([(4.32e9, 8.4e6, 5e9)], bg=7.5)
    x = np.linspace(*span, 101)
    with pytest.raises(ParameterError) as err:
        fit_lorentzian_multi(tr, 1, background=Trace(x, np.full(x.size, 7.5)))
    assert str(err.value) == (
        f"reference spans x {span[0]!r} to {span[1]!r}, which does not cover "
        "the trace's 4200000000.0 to 4450000000.0")


def test_lorentzian_reference_wider_than_the_trace():
    true = (4.32e9, 8.4e6, 5e9)
    tr = lorentz_trace([true], bg=7.5)
    x = np.linspace(4.1e9, 4.5e9, 101)
    reference = Trace(x, np.full(x.size, 7.5))
    fit = fit_lorentzian_multi(tr, 1, background=reference)
    assert fit.converged
    assert relerr(fit.params["area_1"], true[2]) < 1e-6


def test_lorentzian_two_separated_peaks_independent():
    g1, g2 = 4e6, 6e6
    sep = 10 * max(g1, g2)
    peaks = [(4.30e9, g1, 5e9), (4.30e9 + sep, g2, 8e9)]
    fit = fit_lorentzian_multi(lorentz_trace(peaks, noise=0.01, seed=11,
                                             span=(4.25e9, 4.42e9)), 2)
    assert fit.converged
    for k, (c, g, a) in enumerate(peaks, start=1):
        assert relerr(fit.params[f"f_{k}"], c) < 1e-3
        assert relerr(fit.params[f"gamma_{k}"], g) < 0.03
        assert relerr(fit.params[f"area_{k}"], a) < 0.03
    i = fit.param_order.index("area_1")
    j = fit.param_order.index("area_2")
    corr = fit.cov[i, j] / math.sqrt(fit.cov[i, i] * fit.cov[j, j])
    assert abs(corr) < 0.05


def test_lorentzian_areas_recover_sideband_rates(dev):
    n_c, n_th = 1.0e4, 1446.4874967108869
    modes = [MechanicalMode(f=4.30e9, gamma=5e6, g=1.2e5, gamma_e=50.0),
             MechanicalMode(f=4.38e9, gamma=9e6, g=0.8e5, gamma_e=20.0)]
    grid = np.linspace(4.2e9, 4.48e9, 6001)
    tr = thermal_spectrum(dev, modes, n_c, n_th, grid)
    fit = fit_lorentzian_multi(tr, 2)
    assert fit.converged
    for k, mode in enumerate(modes, start=1):
        rate = n_th * sideband_rate(mode, n_c, dev.kappa_o)
        assert relerr(fit.params[f"area_{k}"], rate) < 0.02


# ------------------------------------------------- contraction with noise -> 0

def max_param_err(fit, truths):
    return max(relerr(fit.params[k], v) for k, v in truths.items())


@pytest.mark.parametrize("noise_levels", [(1e-2, 1e-3, 1e-4)])
def test_fitters_contract_as_noise_vanishes(dev, noise_levels):
    errs_dip, errs_phase, errs_line, errs_lor = [], [], [], []
    for noise in noise_levels:
        fit = fit_optical_dip(dip_trace(noise=noise, seed=12), branch="under")
        errs_dip.append(max_param_err(fit, {"f_o": F_O, "kappa_o": KAPPA_O,
                                            "kappa_oe": KAPPA_OE}))
        mag, ph = phase_traces(4.32e9, noise=noise, seed=13)
        fit = fit_phase_detuning(mag, ph, dev)
        errs_phase.append(relerr(fit.params["detuning"], 4.32e9))
        fit = fit_linewidth_vs_photons(linewidth_points(noise=noise, seed=14),
                                       "blue", KAPPA_O)
        errs_line.append(max_param_err(fit, {"g_om": 130e3, "gamma_mi": 8.4e6}))
        fit = fit_lorentzian_multi(
            lorentz_trace([(4.32e9, 8.4e6, 5e9)], noise=noise, seed=15), 1)
        errs_lor.append(max_param_err(fit, {"f_1": 4.32e9, "gamma_1": 8.4e6,
                                            "area_1": 5e9}))
    for errs in (errs_dip, errs_phase, errs_line, errs_lor):
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[0] < 0.03


# --------------------------------------------------------- named input errors

FLAT = Trace(np.linspace(-1.0, 1.0, 64), np.ones(64))
RAMP = Trace(np.linspace(0.0, 1e-6, 50), np.linspace(0.0, 1.0, 50), "s", "v")


@pytest.mark.parametrize("call, error, message", [
    (lambda: fit_linewidth_vs_photons(np.array([1e4, 5e4, 1e5]), "blue",
                                      KAPPA_O),
     ParameterError, "points must be (n_c, gamma) pairs"),
    (lambda: fit_linewidth_vs_photons(linewidth_points(), "blue", KAPPA_O,
                                      weights=[1.0, 1.0]),
     ParameterError, "weights must hold one value per point"),
    (lambda: fit_lorentzian_multi(FLAT, -1),
     ParameterError, "n_peaks must be >= 0 (got -1)"),
    (lambda: fit_lorentzian_multi(FLAT, 1, background="cubic"),
     ParameterError,
     "background must be 'constant', 'linear', or a reference Trace"),
    (lambda: fit_ring(RAMP, "up"),
     ParameterError, "kind must be 'ringup' or 'ringdown' (got 'up')"),
    (lambda: fit_ring(Trace(RAMP.x[:5], RAMP.y[:5], "s", "v"), "ringup"),
     FitError, "segment too short to fit"),
], ids=["linewidth_1d_points", "linewidth_weights_length",
        "lorentz_negative_peaks", "lorentz_cubic_background", "ring_kind_up",
        "ring_five_points"])
def test_fitters_name_the_input_they_reject(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


# ------------------------------------------------------------ non-convergence

@pytest.fixture
def one_iteration(monkeypatch):
    """Every Gauss-Newton run stops after one iteration."""
    monkeypatch.setattr(fitting, "MAX_ITER", 1)


def ring_down_trace(gamma=7.9e6):
    t = np.linspace(0.0, 5.0 / (math.pi * gamma), 400)
    down = np.exp(-math.pi * gamma * t)
    return Trace(t, down + 0.01 * np.random.default_rng(2).standard_normal(t.size),
                 "s", "v")


# fitter -> the note that flags its stop; a ring fit read as the wrong kind
# is a poor fit, and that note replaces the solver's
STOPPED_SHORT = {
    "dip": (lambda dev: fit_optical_dip(dip_trace(noise=0.01, seed=1)),
            "non-convergence"),
    "phase": (lambda dev: fit_phase_detuning(*phase_traces(3e9, noise=0.01), dev),
              "non-convergence"),
    "lorentzian": (lambda dev: fit_lorentzian_multi(
        lorentz_trace([(4.32e9, 8.4e6, 5e9)], noise=0.01, seed=8), 1),
        "non-convergence"),
    "ring": (lambda dev: fit_ring(ring_down_trace(), "ringdown"),
             "non-convergence"),
    "ring_wrong_kind": (lambda dev: fit_ring(ring_down_trace(), "ringup"),
                        "poor-fit: residual large; check segment kind"),
}


@pytest.mark.parametrize("name", STOPPED_SHORT)
def test_fit_stopped_short_is_flagged(name, dev, one_iteration):
    run, note = STOPPED_SHORT[name]
    fit = run(dev)
    assert fit.converged is False
    assert fit.n_iter == 1
    assert fit.notes[-1] == note
    assert "non-convergence" not in fit.notes[:-1]


def test_dip_stopped_short_keeps_its_three_parameters(one_iteration, tmp_path):
    tr = dip_trace(noise=0.01, seed=1)
    fit = fit_optical_dip(tr, branch="under")
    assert set(fit.params) == {"f_o", "kappa_o", "depth"}
    assert fit.stderr == {}
    write_trace(tr, tmp_path / "dip.csv")
    assert cli.main(["fit", "dip", "--trace", str(tmp_path / "dip.csv"),
                     "--branch", "under"]) == 3


# ----------------------------------------------------- models and Jacobians

@pytest.fixture
def runs(monkeypatch):
    """Each Gauss-Newton run's start p0 and its model, wrapped to count the
    calls of the model and of the normal() it returns."""
    seen, solve = [], fitting._gauss_newton

    def capture(model, p0, names, **kwargs):
        run = {"p0": np.array(p0, dtype=float), "model": 0, "normal": 0}

        def counted(p):
            run["model"] += 1
            r, normal = model(p)

            def counted_normal():
                run["normal"] += 1
                return normal()
            return r, counted_normal
        run["fn"] = counted
        seen.append(run)
        return solve(counted, p0, names, **kwargs)
    monkeypatch.setattr(fitting, "_gauss_newton", capture)
    return seen


def stacked_phase_jacobian(u, m):
    """The phase model's real Jacobian, stacked from its complex columns
    (u, m, i m) as reference_phase builds it."""
    return np.column_stack([np.concatenate([u.real, u.imag]),
                            np.concatenate([m.real, m.imag]),
                            np.concatenate([-m.imag, m.real])])


def jacobian_of(normal):
    """The real Jacobian J whose normal equations normal() forms: the
    blocks of rows handed to _normal, stacked (one block is J itself, in
    its layout), or the J stacked from the complex columns handed to
    _phase_normal. Each call passes through, so normal() runs as in a fit."""
    seen, real, phase = [], fitting._normal, fitting._phase_normal

    def block(J, r):
        seen.append(np.copy(J, order="K"))      # the buffer is reused
        return real(J, r)

    def complex_columns(u, m, rz):
        seen.append(stacked_phase_jacobian(u, m))
        return phase(u, m, rz)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_normal", block)
        mp.setattr(fitting, "_phase_normal", complex_columns)
        normal()
    return seen[0] if len(seen) == 1 else np.concatenate(seen)


def ring_up_trace():
    down = ring_down_trace()
    return Trace(down.x, 1.0 - down.y, "s", "v")


def lorentz_peaks(n):
    peaks = [(4.28e9, 4e6, 5e9), (4.32e9, 8.4e6, 8e9), (4.36e9, 6e6, 3e9)]
    return lorentz_trace(peaks[:n], noise=0.01, seed=3, slope=2e-8)


# each fitter runs Gauss-Newton from its initial guess, not from its optimum
FITS = {
    "dip": lambda dev: fit_optical_dip(dip_trace(kappa_oe=0.5e9, noise=0.01,
                                                 seed=1)),
    "phase": lambda dev: fit_phase_detuning(*phase_traces(3e9, noise=0.01), dev),
    **{f"lorentzian_{n}_{bg}": (lambda dev, n=n, bg=bg:
                                fit_lorentzian_multi(lorentz_peaks(n), n, bg))
       for n in (1, 2, 3) for bg in ("constant", "linear")},
    "ringup": lambda dev: fit_ring(ring_up_trace(), "ringup"),
    "ringdown": lambda dev: fit_ring(ring_down_trace(), "ringdown"),
}


@pytest.mark.parametrize("name", FITS)
def test_model_jacobian_matches_central_differences(name, dev, runs):
    FITS[name](dev)
    assert runs
    for run in runs:
        model, p0 = run["fn"], run["p0"]
        r, normal = model(p0)
        J = jacobian_of(normal)
        assert J.shape == (r.size, p0.size)
        for i in range(p0.size):
            up, down = p0.copy(), p0.copy()
            up[i] += 1e-8 * max(abs(p0[i]), 1.0)
            down[i] -= 1e-8 * max(abs(p0[i]), 1.0)
            slope = (model(up)[0] - model(down)[0]) / (up[i] - down[i])
            scale = np.max(np.abs(J[:, i]))
            assert scale > 0
            assert np.max(np.abs(J[:, i] - slope)) < 1e-4 * scale, (name, i)


@pytest.mark.parametrize("name", ["dip", "lorentzian_1_constant", "ringdown"])
def test_jacobian_is_built_once_per_accepted_point(name, dev, runs):
    fit = FITS[name](dev)
    assert fit.converged
    # the start, then each step
    assert [run["normal"] for run in runs] == [fit.n_iter + 1]


@pytest.mark.parametrize("name", ["lorentzian_1_constant", "ringdown"])
def test_gauss_newton_uncertainties_follow_the_least_squares_rule(name, dev,
                                                                  runs):
    fit = FITS[name](dev)
    (run,) = runs
    r, normal = run["fn"](np.array([fit.params[n] for n in fit.param_order]))
    A, _ = normal()
    (m,), (n, _), cost = r.shape, A.shape, float(r @ r)
    assert fit.residual_norm == math.sqrt(cost / m)
    np.testing.assert_array_equal(fit.cov, cost / (m - n) * np.linalg.pinv(A))
    assert list(fit.stderr.values()) == list(np.sqrt(np.diag(fit.cov)))


@pytest.mark.parametrize("kind", ["ringup", "ringdown"])
def test_ring_fit_of_a_huge_segment_scales_back(kind):
    # 2**600 times the segment is fit at 2**499: its sums of squares would
    # overflow at 2**600, and v and the rms scale back by 2**101
    tr = ring_up_trace() if kind == "ringup" else ring_down_trace()
    fit = fit_ring(tr, kind)
    big = fit_ring(Trace(tr.x, tr.y * 2.0 ** 600, "s", "v"), kind)
    assert big.converged and big.n_iter == fit.n_iter
    assert big.params["gamma_m"] == pytest.approx(fit.params["gamma_m"],
                                                  rel=1e-12)
    name = "v_f" if kind == "ringup" else "v_i"
    assert big.params[name] == pytest.approx(fit.params[name] * 2.0 ** 600,
                                             rel=1e-12)
    assert big.residual_norm == pytest.approx(fit.residual_norm * 2.0 ** 600,
                                              rel=1e-12)


def test_rejected_steps_build_no_jacobian(runs):
    # this trace's fit rejects 3 of its 8 trial steps
    fit = fit_lorentzian_multi(lorentz_trace([(4.32e9, 8.4e6, 5e9)], noise=0.01,
                                             seed=8), 1)
    assert fit.converged
    (run,) = runs
    assert run["normal"] == fit.n_iter + 1
    assert run["model"] > run["normal"]


def test_fit_whose_start_overflows_raises_overflow_error():
    # finite data whose residual sum of squares overflows: a named error
    # and no RuntimeWarning, where the fit ran on with inf costs
    f = np.linspace(4.2e9, 4.45e9, 2001)
    y = 1e200 * (1.0 + 3.0 / (1.0 + ((f - 4.3e9) / 1e7) ** 2))
    with pytest.raises(OverflowError) as err:
        fit_lorentzian_multi(Trace(f, y), 1)
    assert str(err.value) == "residual sum of squares at the start is inf"


# ---------------------------------------------- one Jacobian at a time

def _random_model(name, rng):
    """(the fitting model, its conftest oracle) at random parameters."""
    f = np.sort(rng.uniform(-8e9, 8e9, 1001))
    y = rng.standard_normal(f.size)
    if name == "dip":
        p = np.array([rng.normal(0.0, KAPPA_O), KAPPA_O * rng.uniform(0.2, 3.0),
                      rng.uniform(0.0, 0.99)])
        return fitting._dip(f, y, p), reference_dip(f, y, p)
    if name == "phase":
        z = y + 1j * rng.standard_normal(f.size)
        p = np.array([rng.uniform(-4e9, 4e9), rng.normal(), rng.normal()])
        args = (f, z, 2 * np.pi * KAPPA_OE, KAPPA_O, p)
        return fitting._phase(*args), reference_phase(*args)
    _, n_peaks, bg = name.split("_")
    n_peaks, linear = int(n_peaks), bg == "linear"
    p = np.concatenate([
        *([rng.uniform(-8e9, 8e9), rng.uniform(1e6, 1e9), rng.normal() * 1e9]
          for _ in range(n_peaks)), rng.normal(size=2 if linear else 1)])
    u = f / 16e9 if linear else None
    return (fitting._lorentz(f, y, u, n_peaks, p),
            reference_lorentz(f, y, u, n_peaks, p))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["dip", "phase", "lorentz_0_constant",
                                  "lorentz_1_linear", "lorentz_3_constant",
                                  "lorentz_3_linear"])
def test_filled_jacobians_have_the_column_stack_bytes(name, seed):
    # the real models fill a column-major J; the phase model's complex
    # columns hold the bytes of the stacked J
    (r, normal), (r_ref, J_ref) = _random_model(name,
                                                np.random.default_rng(seed))
    J = jacobian_of(normal)
    assert J.shape == J_ref.shape
    assert J.flags.f_contiguous or name == "phase"
    assert J.tobytes() == J_ref.tobytes()
    assert r.tobytes() == r_ref.tobytes()


def test_phase_normal_equations_are_those_of_the_stacked_jacobian():
    # the five complex dot products against J^T J and J^T r of the oracle
    for seed in range(4):
        (r, normal), (r_ref, J_ref) = _random_model(
            "phase", np.random.default_rng(seed))
        A, g = normal()
        A_ref, g_ref = fitting._normal(J_ref, r_ref)
        scale = np.sqrt(np.outer(np.diag(A_ref), np.diag(A_ref)))
        assert np.max(np.abs(A - A_ref) / scale) < 1e-14
        assert np.max(np.abs(g - g_ref) / np.sqrt(np.diag(A_ref) * (r @ r))) \
            < 1e-14


def _stacked_phase_model(f, z, gain, kappa_o):
    """The phase model with a stacked real J, as an oracle: reference_phase's
    (r, J) handed to _normal."""
    def model(p):
        r, J = reference_phase(f, z, gain, kappa_o, p)
        return r, lambda: fitting._normal(J, r)
    return model


@pytest.mark.parametrize("name", ["dip", "phase", "lorentz_1", "lorentz_3"])
def test_column_major_jacobian_fits_as_a_row_major_one(monkeypatch, dev, name):
    # the layout moves only the last bits of J^T r, never the fit; the phase
    # fit's five complex dot products move only those bits of A and g, and
    # it fits as the stacked real J does
    pairs, solve, normal = [], fitting._gauss_newton, fitting._normal
    mag, ph = phase_traces(3e9, noise=0.01)
    stacked = _stacked_phase_model(mag.x, mag.y * np.exp(1j * ph.y),
                                   2 * np.pi * dev.kappa_oe, dev.kappa_o)

    def both(model, p0, names, **kwargs):
        fit = solve(model, p0, names, **kwargs)
        if name == "phase":
            pairs.append((fit, solve(stacked, p0, names, **kwargs)))
            return fit
        with monkeypatch.context() as mp:
            mp.setattr(fitting, "_normal", lambda J, r: normal(
                np.ascontiguousarray(J), r))
            pairs.append((fit, solve(model, p0, names, **kwargs)))
        return fit
    monkeypatch.setattr(fitting, "_gauss_newton", both)
    if name == "dip":
        fit_optical_dip(dip_trace(noise=0.01, seed=1))
    elif name == "phase":
        fit_phase_detuning(mag, ph, dev)
    elif name == "lorentz_1":
        fit_lorentzian_multi(lorentz_trace([(4.32e9, 8.4e6, 5e9)], noise=0.01,
                                           seed=8), 1)
    else:
        fit_lorentzian_multi(lorentz_trace(
            [(4.28e9, 4e6, 5e9), (4.32e9, 8.4e6, 8e9), (4.36e9, 6e6, 3e9)],
            noise=0.01, seed=3, slope=1e-9), 3, background="linear")
    assert len(pairs) == (2 if name == "phase" else 1)
    for fit, other in pairs:
        assert fit.converged and fit.n_iter == other.n_iter
        for key, value in fit.params.items():
            assert relerr(value, other.params[key]) < 1e-12, key


def _peak_bytes(fit):
    fit()           # the first call makes the one-time allocations
    tracemalloc.start()
    try:
        fit()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lorentzian_fit_holds_no_whole_jacobian(runs):
    n = 50_000      # 7 blocks of rows
    tr = lorentz_trace([(4.28e9, 4e6, 5e9), (4.32e9, 8.4e6, 8e9),
                        (4.36e9, 6e6, 3e9)], noise=0.01, seed=3, n=n)
    peak = _peak_bytes(lambda: fit_lorentzian_multi(tr, 3))
    J = jacobian_of(runs[0]["fn"](runs[0]["p0"])[1])
    assert J.shape == (n, 10) and n > 3 * fitting._FIT_ROWS
    # the fit peaks near 0.5 J: n-arrays of 0.1 J each (the trace's copy,
    # the residuals and their scratch array) and one block of J; a whole J
    # beside them reaches 1.6 J
    assert peak < J.nbytes


# every fit of a real model: the dip on each branch, the Lorentzian with 1
# and 3 peaks on each background, both ring edges
BLOCKED = {
    **{f"dip_{branch}": (lambda branch=branch: fit_optical_dip(
        dip_trace(noise=0.01, seed=1), branch=branch))
       for branch in ("under", "over", None)},
    **{f"lorentzian_{n}_{bg}": (lambda n=n, bg=bg: fit_lorentzian_multi(
        lorentz_peaks(n), n, bg))
       for n in (1, 3) for bg in ("constant", "linear")},
    "ringup": lambda: fit_ring(ring_up_trace(), "ringup"),
    "ringdown": lambda: fit_ring(ring_down_trace(), "ringdown"),
}


@pytest.mark.parametrize("name", BLOCKED)
def test_a_fit_in_blocks_of_rows_is_the_one_block_fit(name, monkeypatch, runs):
    # the block sums move only the last bits of A and g. The errors read
    # from pinv(A) move by more where A's condition number nears pinv's
    # cutoff (ROADMAP item 3): the dip's f_o error is left out, and the
    # narrowest peak's width and area errors move by up to 3e-7 over a
    # linear background, by 1e-13 over a constant one
    monkeypatch.setattr(fitting, "_FIT_ROWS", 10 ** 9)
    whole = BLOCKED[name]()
    rows, normal = [], fitting._normal

    def counted(J, r):
        rows.append(J.shape[0])
        return normal(J, r)
    monkeypatch.setattr(fitting, "_normal", counted)
    monkeypatch.setattr(fitting, "_FIT_ROWS", 97)
    blocked = BLOCKED[name]()
    assert max(rows) == 97 and len(rows) >= 3 * runs[-1]["normal"]
    assert (blocked.n_iter, blocked.converged) == (whole.n_iter,
                                                   whole.converged)
    for key, value in whole.params.items():
        assert relerr(blocked.params[key], value) < 1e-12, key
    errors = [key for key in whole.stderr
              if key.startswith(("depth", "gamma_", "area_"))]
    assert errors
    tol = 1e-6 if name.endswith("linear") else 1e-9
    for key in errors:
        assert relerr(blocked.stderr[key], whole.stderr[key]) < tol, key


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", ["dip", "lorentz_0_constant",
                                  "lorentz_1_linear", "lorentz_3_linear"])
def test_blocks_of_rows_sum_to_the_whole_jacobian(name, seed, monkeypatch):
    # 1001 rows in 11 blocks, the last of 31: the blocks stack to the
    # oracle's J, and their sums are its normal equations to rounding
    monkeypatch.setattr(fitting, "_FIT_ROWS", 97)
    (r, normal), (r_ref, J_ref) = _random_model(name,
                                                np.random.default_rng(seed))
    assert jacobian_of(normal).tobytes() == J_ref.tobytes()
    A, g = normal()
    A_ref, g_ref = fitting._normal(J_ref, r_ref)
    scale = np.sqrt(np.diag(A_ref))
    assert np.max(np.abs(A - A_ref) / np.outer(scale, scale)) < 1e-14
    assert np.max(np.abs(g - g_ref) / (scale * np.sqrt(r @ r))) < 1e-14


def test_phase_fit_holds_no_real_jacobian(dev):
    n = 20_000
    mag, ph = phase_traces(3e9, noise=0.01, n=n)
    peak = _peak_bytes(lambda: fit_phase_detuning(mag, ph, dev))
    J_bytes = 2 * n * 3 * 8     # the stacked real J of the 2n residuals
    # the fit peaks at 5/3 J: z, the pole, m, rz, and r or u, complex
    # n-arrays of 1/3 J each; a real J beside them would reach 8/3 J
    assert peak < 2.0 * J_bytes


# ------------------------------------------------- errors from one covariance

def red_points():
    pts = linewidth_points(noise=0.02, seed=6)
    pts[:, 1] = 2 * 8.4e6 - pts[:, 1]       # broadening: red-detuned
    return pts


def constant_segment():
    t = np.linspace(0.0, 1e-6, 100)
    return Trace(t, np.full(t.size, 2.0), "s", "v")


# every fitter and result kind; the dip stopped short runs one iteration
ALL_FITS = {
    **{f"dip_{branch}": (lambda dev, branch=branch: fit_optical_dip(
        dip_trace(noise=0.01, seed=1), branch=branch))
       for branch in ("under", "over", None)},
    "dip_stopped_short": lambda dev: fit_optical_dip(dip_trace(noise=0.01,
                                                               seed=1)),
    "phase": FITS["phase"],
    "linewidth_blue": lambda dev: fit_linewidth_vs_photons(
        linewidth_points(noise=0.02, seed=6), "blue", KAPPA_O),
    "linewidth_red": lambda dev: fit_linewidth_vs_photons(red_points(), "red",
                                                          KAPPA_O),
    "linewidth_weighted": lambda dev: fit_linewidth_vs_photons(
        linewidth_points(noise=0.02, seed=6), "blue", KAPPA_O,
        weights=np.linspace(0.5, 2.0, 12)),
    "linewidth_zero_slope": lambda dev: fit_linewidth_vs_photons(
        [[1e4, 8.40e6], [5e4, 8.38e6], [1e5, 8.45e6]], "blue", KAPPA_O),
    **{f"lorentzian_{n}_{bg}": (
        lambda dev, n=n, bg=bg: fit_lorentzian_multi(
            lorentz_peaks(n), n, bg if bg != "reference" else
            Trace(lorentz_peaks(n).x, np.full(3001, 3.0))))
       for n in (0, 1, 2, 3) for bg in ("constant", "linear", "reference")},
    "ringup": FITS["ringup"],
    "ringdown": FITS["ringdown"],
    "ring_constant": lambda dev: fit_ring(constant_segment(), "ringdown"),
}


@pytest.mark.parametrize("name", ALL_FITS)
def test_stderr_is_read_from_cov(name, dev, request):
    if name == "dip_stopped_short":
        request.getfixturevalue("one_iteration")
    fit = ALL_FITS[name](dev)
    expected = {} if fit.cov is None else \
        dict(zip(fit.param_order, np.sqrt(np.abs(np.diag(fit.cov)))))
    assert fit.stderr == expected
    assert set(fit.param_order) <= set(fit.params)
    if name.startswith(("dip_stopped", "ring_constant")):
        assert fit.stderr == {} and fit.param_order == ()


@pytest.fixture
def solved(monkeypatch):
    """The solver's FitResult of each Gauss-Newton or linear fit."""
    seen = []
    for name in ("_gauss_newton", "_least_squares_result"):
        def capture(*args, _solve=getattr(fitting, name), **kwargs):
            seen.append(_solve(*args, **kwargs))
            return seen[-1]
        monkeypatch.setattr(fitting, name, capture)
    return seen


@pytest.mark.parametrize("branch", ["under", "over"])
def test_dip_errors_are_propagated_from_the_solver_cov(branch, solved):
    fit = fit_optical_dip(dip_trace(noise=0.01, seed=1), branch=branch)
    solver = solved[-1]
    assert solver.param_order == ("f_o", "kappa_o", "depth_sq")
    _, kappa, e = solver.params.values()
    d = math.sqrt(e)
    grads = {"depth": [0, 0, 1 / (2 * d)],
             "kappa_oe_under": [0, (1 - d) / 2, -kappa / (4 * d)],
             "kappa_oe_over": [0, (1 + d) / 2, kappa / (4 * d)]}
    grads["kappa_oe"] = grads[f"kappa_oe_{branch}"]
    for name, g in grads.items():
        g = np.array(g)
        assert fit.stderr[name] ** 2 == pytest.approx(g @ solver.cov @ g,
                                                      rel=1e-12), name
    grads.update(f_o=[1, 0, 0], kappa_o=[0, 1, 0])
    G = np.array([grads[name] for name in fit.param_order])
    np.testing.assert_allclose(fit.cov, G @ solver.cov @ G.T, rtol=1e-12)


@pytest.mark.parametrize("sign", ["blue", "red"])
def test_g_om_error_is_propagated_from_the_solver_cov(sign, solved):
    pts = linewidth_points(noise=0.02, seed=6) if sign == "blue" \
        else red_points()
    fit = fit_linewidth_vs_photons(pts, sign, KAPPA_O)
    (solver,) = solved
    assert solver.param_order == ("slope", "intercept")
    # g_om = sqrt(-/+ slope kappa_o / 4) for blue/red
    g = np.array([(-1 if sign == "blue" else 1) * KAPPA_O
                  / (8 * fit.params["g_om"]), 0.0])
    assert fit.stderr["g_om"] ** 2 == pytest.approx(g @ solver.cov @ g,
                                                    rel=1e-12)
    G = np.array([g, [0.0, 1.0], [1.0, 0.0]])     # g_om, gamma_mi, slope
    np.testing.assert_allclose(fit.cov, G @ solver.cov @ G.T, rtol=1e-12)


def solver_returns(monkeypatch, values, cov):
    """Every Gauss-Newton run returns values with covariance cov."""
    def solve(model, p0, names, **kwargs):
        return fitting.FitResult(dict(zip(names, values)), 0.0, True, 1,
                                 cov=np.array(cov), param_order=tuple(names))
    monkeypatch.setattr(fitting, "_gauss_newton", solve)


def test_dip_at_zero_depth_takes_the_secant_slope(monkeypatch):
    # d = sqrt(e) at e = 0: depth +/- sqrt(se_e), and kappa_oe_under/over
    # carry the depth term kappa/2 * sqrt(se_e) too
    kappa, var_k, cov_ke, var_e = 2.0, 9.0, 0.3, 0.0625
    solver_returns(monkeypatch, [F_O, kappa, 0.0],
                   [[4.0, 0, 0], [0, var_k, cov_ke], [0, cov_ke, var_e]])
    fit = fit_optical_dip(dip_trace())
    se_e = math.sqrt(var_e)
    assert fit.params["depth"] == 0.0
    assert fit.stderr["depth"] == math.sqrt(se_e)
    dd = 1 / math.sqrt(se_e)          # the secant slope of depth over depth_sq
    for name, sign in (("kappa_oe_under", -1), ("kappa_oe_over", 1)):
        var = var_k / 4 + sign * kappa / 2 * dd * cov_ke \
            + (kappa / 2 * dd) ** 2 * var_e
        assert fit.stderr[name] ** 2 == pytest.approx(var, rel=1e-12)
        # the rule that dropped the depth term at d = 0 gave sqrt(var_k) / 2
        assert fit.stderr[name] != pytest.approx(math.sqrt(var_k) / 2)
    # no spread in e: the secant slope is 0 and so is the depth error
    solver_returns(monkeypatch, [F_O, kappa, 0.0],
                   [[4.0, 0, 0], [0, var_k, 0], [0, 0, 0.0]])
    fit = fit_optical_dip(dip_trace())
    assert fit.stderr["depth"] == 0.0
    assert fit.stderr["kappa_oe_under"] == math.sqrt(var_k) / 2


def test_g_om_at_zero_slope_takes_the_secant_slope(monkeypatch):
    fit = fit_linewidth_vs_photons([[1e4, 8.40e6], [5e4, 8.38e6],
                                    [1e5, 8.45e6]], "blue", KAPPA_O)
    assert fit.params["g_om"] == 0.0
    assert fit.stderr["g_om"] == pytest.approx(
        math.sqrt(fit.stderr["slope"] * KAPPA_O / 4), rel=1e-12)
    # a slope with no spread: g_om +/- 0, not a ZeroDivisionError
    solve = fitting._least_squares_result
    monkeypatch.setattr(fitting, "_least_squares_result",
                        lambda *args, **kwargs: replace(
                            solve(*args, **kwargs), cov=np.zeros((2, 2))))
    fit = fit_linewidth_vs_photons([[1e4, 8.4e6], [5e4, 8.4e6], [1e5, 8.4e6]],
                                   "blue", KAPPA_O)
    assert fit.params["g_om"] == 0.0
    assert fit.stderr["g_om"] == 0.0


@pytest.mark.parametrize("name", [n for n in ALL_FITS if not n.startswith(
    ("dip_stopped", "ring_constant"))])
def test_errors_are_inf_when_pinv_fails(name, dev, monkeypatch):
    # the solver's cov is all inf; G cov G^T meets inf times the zeros of G
    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("forced")
    monkeypatch.setattr(np.linalg, "pinv", fail)
    fit = ALL_FITS[name](dev)
    assert fit.stderr
    assert all(se == math.inf for se in fit.stderr.values())
