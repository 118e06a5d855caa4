import math
import tracemalloc

import numpy as np
import pytest

from transducersim import (FitError, LinkConfig, ParameterError, SamplingError,
                           Trace, eye_diagram, fit_ring, harmonic_spectrum,
                           link_metrics, parse_bits, run_link)
from transducersim import link
from transducersim.link import EXTINCTION_CAP, ring_segments

from conftest import (reference_beta, reference_drive, reference_eye,
                      reference_ring_segments, reference_run, relerr)

PRBS48 = tuple(int(b) for b in
               "110100101100111011000101001111001010110001110100")


def cfg_for(bits, rate, gamma_m=7.9e6, **kw):
    spb = kw.pop("samples_per_bit", None)
    if spb is None:
        spb = max(8, int(math.ceil(20.0 * gamma_m / rate)),
                  int(math.ceil(2.5 * kw.get("f_if", 50e6) / rate)))
    return LinkConfig(bits=bits, rate=rate, gamma_m=gamma_m,
                      samples_per_bit=spb, **kw)


# ------------------------------------------------------------------ dynamics

def test_quadrature_identity_holds_pointwise():
    cfg = cfg_for(PRBS48, 10e6, noise_rms=0.05)
    run = run_link(cfg, seed=1)
    assert np.allclose(run.envelope.y,
                       np.hypot(run.i_trace.y, run.q_trace.y),
                       rtol=0, atol=1e-15)
    assert np.all(run.envelope.y >= 0)


def test_isolated_step_matches_first_order_ring_up():
    cfg = cfg_for((0, 1, 1, 1, 1, 1, 1, 1), 2e6, gamma_m=7.9e6)
    run = run_link(cfg)
    spb = cfg.samples_per_bit
    t = run.time[spb:] - run.time[spb]
    expected = cfg.v0 * (1.0 - np.exp(-np.pi * cfg.gamma_m * t))
    assert np.max(np.abs(np.abs(run.beta[spb:]) - expected)) < 1e-12

    # phonon-number form: n(t) = n_f (1 - exp(-pi*gamma*t))^2 for n_i = 0
    n_t = np.abs(run.beta[spb:]) ** 2
    assert np.max(np.abs(n_t - (1 - np.exp(-np.pi * cfg.gamma_m * t)) ** 2)) \
        < 1e-12


def test_settled_ring_down_is_exact_exponential():
    cfg = cfg_for((1,) * 8 + (0,) * 8, 2e6, gamma_m=7.9e6)
    run = run_link(cfg)
    spb = cfg.samples_per_bit
    k0 = 8 * spb
    t = run.time[k0:] - run.time[k0]
    v_i = abs(run.beta[k0])
    assert relerr(v_i, cfg.v0) < 1e-9          # settled before the edge
    expected = v_i * np.exp(-np.pi * cfg.gamma_m * t)
    assert np.max(np.abs(np.abs(run.beta[k0:]) - expected)) < 1e-12


def test_envelope_agrees_across_step_sizes():
    # the exponential update is exact, so halving the step must not
    # change the envelope at shared sample times
    coarse = cfg_for(PRBS48[:16], 10e6, samples_per_bit=32)
    fine = cfg_for(PRBS48[:16], 10e6, samples_per_bit=64)
    run_c = run_link(coarse)
    run_f = run_link(fine)
    assert np.max(np.abs(run_c.beta - run_f.beta[::2])) < 1e-12


def test_envelope_satisfies_the_mode_ode():
    def ode_residual(spb):
        cfg = cfg_for(PRBS48[:16], 10e6, samples_per_bit=spb)
        run = run_link(cfg)
        beta, t = run.beta, run.time
        dt = t[1] - t[0]
        # central difference at samples 1..N-1; resid[j] is sample j+1
        dbeta = (beta[2:] - beta[:-2]) / (2 * dt)
        gate = np.repeat(np.asarray(cfg.bits, float), cfg.samples_per_bit)
        drive = math.pi * cfg.gamma_m * cfg.v0 * gate[1:]
        resid = dbeta + math.pi * cfg.gamma_m * beta[1:-1] - drive
        smooth = gate[:-1] == gate[1:]         # skip bit boundaries
        return float(np.max(np.abs(resid[smooth]))), cfg
    coarse, cfg = ode_residual(256)
    fine, _ = ode_residual(512)
    scale = math.pi * cfg.gamma_m * cfg.v0
    assert coarse < 1e-4 * scale
    assert fine < 0.3 * coarse                 # half step, ~4x smaller


# the closed form against the per-sample loop it replaced; "slow" has
# d^spb = 0.5, so each bit's start value carries into the next
ORACLE_CASES = {
    "prbs": dict(bits=PRBS48, rate=10e6, gamma_m=7.9e6, samples_per_bit=32),
    "slow": dict(bits=PRBS48, rate=math.pi * 1e6 / math.log(2), gamma_m=1e6,
                 samples_per_bit=16, v0=2.5),
    "one_bit": dict(bits=(1,), rate=1e6, gamma_m=7.9e6, samples_per_bit=160),
    "all_zero": dict(bits=(0,) * 8, rate=1e6, gamma_m=7.9e6,
                     samples_per_bit=160),
    "all_one": dict(bits=(1,) * 8, rate=1e6, gamma_m=7.9e6,
                    samples_per_bit=160),
    "alternating": dict(bits=(0, 1) * 8, rate=1e6, gamma_m=7.9e6,
                        samples_per_bit=160),
}


@pytest.mark.parametrize("mode", ["coherent", "thermal"])
@pytest.mark.parametrize("f_if", [0.0, 10e6])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_closed_form_matches_per_sample_loop(case, f_if, mode):
    cfg = LinkConfig(f_if=f_if, drive_mode=mode, **ORACLE_CASES[case])
    run = run_link(cfg, seed=4)
    decay, u = reference_drive(cfg, np.random.default_rng(4))
    if case == "slow":
        assert abs(decay ** cfg.samples_per_bit - 0.5) < 1e-12
    ref = reference_beta(decay, u)
    assert np.max(np.abs(run.beta - ref)) <= 1e-13 * cfg.v0
    if case == "all_zero":
        assert not np.any(run.beta)


@pytest.mark.parametrize("mode", ["coherent", "thermal"])
@pytest.mark.parametrize("f_if,cycles,samples", [(50e6, 25, 79),
                                                 (12.5e6, 25, 316)])
def test_carrier_phase_is_exact_at_a_rational_if(f_if, cycles, samples, mode):
    # default sampling: 158 samples per bit at 1 Mbit/s, so f_if*dt is
    # cycles/samples and sample n of the carrier is exactly
    # exp(2*pi*i*(cycles*n mod samples)/samples); exp(2*pi*i*f_if*t) loses
    # ~2e-10 over 2000 bits. At 12.5 MHz a bit holds 12.5 cycles.
    bits = tuple(np.random.default_rng(3).integers(0, 2, 2000).tolist())
    cfg = LinkConfig(bits=bits, rate=1e6, gamma_m=7.9e6, f_if=f_if, v0=2.5,
                     drive_mode=mode)
    assert cfg.samples_per_bit == 158
    run = run_link(cfg, seed=2)
    n = np.arange(run.time.size)
    carrier = np.exp(2j * np.pi * (cycles * n % samples) / samples)
    v_det = run.i_trace.y + 1j * run.q_trace.y
    assert np.max(np.abs(v_det - run.beta * carrier)) <= 1e-12 * cfg.v0


@pytest.mark.parametrize("mode", ["coherent", "thermal"])
def test_seeded_noise_draws_unchanged(mode):
    cfg = cfg_for(PRBS48[:16], 10e6, f_if=0.0, noise_rms=0.05, drive_mode=mode)
    run = run_link(cfg, seed=9)
    ref = reference_run(cfg, seed=9)
    for new, old in ((run.i_trace.y - run.beta.real,
                      ref.i_trace.y - ref.beta.real),
                     (run.q_trace.y - run.beta.imag,
                      ref.q_trace.y - ref.beta.imag)):
        assert np.max(np.abs(new - old)) < 1e-15


# 250 bits of 158 samples: the default demodulation block splits the run
BLOCK_BITS = {"all_zero": (0,) * 250, "all_one": (1,) * 250,
              "random": tuple(np.random.default_rng(8).integers(0, 2, 250)
                              .tolist())}


@pytest.mark.parametrize("mode", ["coherent", "thermal"])
@pytest.mark.parametrize("noise", [0.0, 0.05])
@pytest.mark.parametrize("f_if", [0.0, 10e6])
@pytest.mark.parametrize("pattern", sorted(BLOCK_BITS))
def test_demodulation_block_size_moves_no_bit(pattern, f_if, noise, mode,
                                              monkeypatch):
    cfg = LinkConfig(bits=BLOCK_BITS[pattern], rate=1e6, gamma_m=7.9e6,
                     f_if=f_if, noise_rms=noise, drive_mode=mode,
                     samples_per_bit=158)
    spb = cfg.samples_per_bit
    assert link._DEMOD_SAMPLES < 250 * spb

    def outputs():
        run = run_link(cfg, seed=5)
        return (run.time, run.beta, run.i_trace.y, run.q_trace.y,
                run.envelope.y)
    default = outputs()
    if noise == 0:      # I + iQ is beta * carrier, signed zeros and all
        phase, within = link._carrier(cfg)
        v_det = default[1][1:].reshape(-1, spb) * within
        v_det *= phase
        assert same_bytes(default[2], np.r_[0.0, v_det.real.ravel()])
        assert same_bytes(default[3], np.r_[0.0, v_det.imag.ravel()])
    # one bit row a block; three, so the last block holds one; the whole run
    for samples in (1, 3 * spb, 10 ** 9):
        monkeypatch.setattr(link, "_DEMOD_SAMPLES", samples)
        for new, old in zip(outputs(), default):
            assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


@pytest.mark.parametrize("mode", ["coherent", "thermal"])
def test_a_run_holds_its_outputs(mode):
    # tracemalloc sees numpy's buffers. Over its outputs a run holds one
    # demodulation block, the finiteness mask (a byte a sample) and its
    # per-bit arrays, where a full-length complex v_det adds 16 bytes a
    # sample; the eye cuts its segments from a view, where an index array
    # adds as many bytes as the segments have
    bits = tuple(np.random.default_rng(6).integers(0, 2, 2000).tolist())
    cfg = LinkConfig(bits=bits, rate=1e6, gamma_m=7.9e6, noise_rms=0.05,
                     drive_mode=mode)
    tracemalloc.start()
    try:
        run = run_link(cfg, seed=4)
        run_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        link_metrics(run, cfg)
        metrics_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    samples = run.time.size
    assert samples == 316001
    outputs = sum(a.nbytes for a in (run.time, run.beta, run.i_trace.y,
                                     run.q_trace.y, run.envelope.y))
    assert outputs == 48 * samples
    assert run_peak - outputs < 16 * link._DEMOD_SAMPLES + samples + 2 ** 19
    segments = eye_diagram(run, cfg).segments.nbytes
    assert metrics_peak - segments < 2 ** 19

def test_sampling_guard():
    # a too coarse sampling fails when the config is built
    with pytest.raises(SamplingError, match="gamma_m"):
        LinkConfig(bits=(0, 1), rate=1e6, gamma_m=7.9e6, samples_per_bit=8)
    with pytest.raises(SamplingError, match="f_if"):
        LinkConfig(bits=(0, 1), rate=1e6, gamma_m=1e5, samples_per_bit=64)


@pytest.mark.parametrize("f_if", [0.0, 10e6, 50e6, 1e9])
def test_default_sampling_is_the_rule_the_cli_used(f_if):
    for rate in np.geomspace(1e3, 1e9, 25).tolist():
        for gamma_m in np.geomspace(1e3, 1e8, 11).tolist():
            cfg = LinkConfig(bits=(0, 1), rate=rate, gamma_m=gamma_m, f_if=f_if)
            assert cfg.samples_per_bit == max(
                32, math.ceil(20.0 * gamma_m / rate),
                math.ceil(2.5 * f_if / rate))
    # where 32 met both bounds, 2.5*f_if/rate still sets the default
    assert LinkConfig(bits=(0, 1), rate=3.5e6, gamma_m=1e6).samples_per_bit == 36
    assert LinkConfig(bits=(0, 1), rate=1e6, gamma_m=1e3,
                      samples_per_bit=8, f_if=0.0).samples_per_bit == 8


@pytest.mark.parametrize("kw", [
    dict(rate=1e-300, gamma_m=1e300),               # the default overflows
    dict(f_if=1e308),
    dict(rate=1e-300, gamma_m=1e-10, f_if=0.0),     # finite, but too large
    dict(samples_per_bit=10 ** 18),
    dict(samples_per_bit=10 ** 400),
    dict(samples_per_bit=np.int64(2 ** 62)),       # 4 * 2**62 wraps in int64
], ids=["gamma_overflow", "f_if_overflow", "derived_too_large",
        "explicit_too_large", "explicit_beyond_float", "explicit_numpy"])
def test_samples_per_bit_must_fit_one_array(kw):
    most = np.iinfo(np.intp).max // 16              # complex samples
    with pytest.raises(ParameterError, match=f"samples_per_bit must be <= "
                       f"{(most - 1) // 4} for 4 bits"):
        LinkConfig(**{**dict(bits=(0, 1, 0, 1), rate=1e6, gamma_m=7.9e6), **kw})


def test_a_sample_rate_that_overflows_is_refused():
    with pytest.raises(ParameterError) as err:
        LinkConfig(bits=(0, 1, 1, 0), rate=1.7e308, gamma_m=1.0, f_if=1.7e308,
                   samples_per_bit=np.int64(8))
    assert str(err.value) == ("rate = 1.7e+308 bit/s times samples_per_bit = "
                              "8 gives a sample rate that overflows")


@pytest.mark.parametrize("bits,rate,spb,f_if,error", [
    ((0, 1, 1, 0), 1e306, 100, 4e307, "samples_per_bit = 100"),
    ((0, 1) * 5, 5e306, 8, 2e307, "len(bits) - 1 = 9"),
], ids=["within_a_bit", "per_bit"])
def test_carrier_phases_that_overflow_raise_before_any_arithmetic(
        bits, rate, spb, f_if, error):
    # the sample rate is finite and represents f_if, but a phase product
    # n*f_if overflows; a RuntimeWarning would fail the test
    cfg = LinkConfig(bits=bits, rate=rate, gamma_m=1.0, f_if=f_if,
                     samples_per_bit=spb)
    with pytest.raises(ParameterError) as err:
        run_link(cfg)
    assert str(err.value) == \
        f"f_if = {f_if!r} Hz times {error} overflows the carrier phase"

def test_parse_bits():
    assert parse_bits("0101") == (0, 1, 0, 1)
    assert parse_bits(" 01 10\n") == (0, 1, 1, 0)
    with pytest.raises(ParameterError):
        parse_bits("01x")
    with pytest.raises(ParameterError):
        parse_bits("")


# ------------------------------------------------------------------ ring fits

def test_ring_fit_round_trip_with_noise():
    rng = np.random.default_rng(2)
    gamma = 7.9e6
    t = np.linspace(0.0, 5.0 / (math.pi * gamma), 400)
    up = 1.0 - np.exp(-math.pi * gamma * t)
    fit = fit_ring(Trace(t, up + 0.01 * rng.standard_normal(t.size),
                         "s", "v"), "ringup")
    assert fit.converged
    assert relerr(fit.params["gamma_m"], gamma) < 0.02

    down = np.exp(-math.pi * gamma * t)
    fit = fit_ring(Trace(t, down + 0.01 * rng.standard_normal(t.size),
                         "s", "v"), "ringdown")
    assert fit.converged
    assert relerr(fit.params["gamma_m"], gamma) < 0.02


def test_ring_fit_recovers_injected_linewidth_from_link():
    # isolated one at 10 Mbit/s with the linewidth reported for the
    # bit-array experiment
    bits = (0, 0, 1, 0, 0, 0, 0, 0)
    cfg = cfg_for(bits, 10e6, gamma_m=9.25e6, samples_per_bit=64)
    run = run_link(cfg)
    up, down = ring_segments(run, cfg)
    fit = fit_ring(down, "ringdown")
    assert relerr(fit.params["gamma_m"], 9.25e6) < 0.02
    fit_up = fit_ring(up, "ringup")
    assert relerr(fit_up.params["gamma_m"], 9.25e6) < 0.02


def test_ring_fit_constant_segment_flagged():
    t = np.linspace(0, 1e-6, 100)
    fit = fit_ring(Trace(t, np.full(t.size, 0.7), "s", "v"), "ringdown")
    assert not fit.converged
    assert any("unidentifiable" in n for n in fit.notes)


def test_ring_fit_wrong_kind_flagged():
    gamma = 7.9e6
    t = np.linspace(0.0, 5.0 / (math.pi * gamma), 400)
    rising = 1.0 - np.exp(-math.pi * gamma * t)
    fit = fit_ring(Trace(t, rising, "s", "v"), "ringdown")
    assert (not fit.converged) or any("poor-fit" in n for n in fit.notes)


# ------------------------------------------------------------------ eyes

def test_eye_opening_monotone_in_bit_rate():
    openings = []
    for rate in (1e6, 3e6, 10e6, 30e6):
        cfg = cfg_for(PRBS48, rate, gamma_m=7.9e6)
        eye = eye_diagram(run_link(cfg), cfg)
        openings.append(eye.opening)
    assert all(a >= b - 1e-12 for a, b in zip(openings, openings[1:]))
    assert openings[0] > 0.9                   # settled at 1 Mbit/s
    assert openings[2] < 0.6 * openings[0]     # clear degradation by 10 Mbit/s


def test_eye_extinction_noise_free_is_capped():
    # slow enough that the settled low level underflows the cap
    cfg = cfg_for(PRBS48, 0.2e6, gamma_m=7.9e6)
    eye = eye_diagram(run_link(cfg), cfg)
    assert eye.extinction_ratio == EXTINCTION_CAP


def test_eye_extinction_limited_by_noise():
    noise = 1e-3
    cfg = cfg_for(PRBS48, 0.5e6, gamma_m=7.9e6, noise_rms=noise)
    eye = eye_diagram(run_link(cfg, seed=3), cfg)
    # settled low level is Rayleigh-distributed noise, mean noise*sqrt(pi/2)
    expected = 1.0 / (noise * math.sqrt(math.pi / 2))
    assert 0.5 * expected < eye.extinction_ratio < 2.0 * expected


def test_eye_closes_for_fast_alternating_pattern():
    gamma = 7.9e6
    rate = 100 * gamma
    cfg = cfg_for((0, 1) * 24, rate, gamma_m=gamma)
    eye = eye_diagram(run_link(cfg), cfg)
    # steady-state alternating response of a first-order filter
    a = math.exp(-math.pi * gamma / rate)
    hi = 1.0 / (1.0 + a)
    lo = a / (1.0 + a)
    hi_mid = lo * math.sqrt(a) + (1 - math.sqrt(a))
    lo_mid = hi * math.sqrt(a)
    bound = max(0.0, hi_mid - lo_mid)
    assert eye.opening <= bound + 1e-9
    assert eye.opening < 0.02


def test_eye_needs_transitions():
    for bits in ((1,) * 8, (0, 0, 1, 1)):
        cfg = cfg_for(bits, 1e6, gamma_m=7.9e6)
        run = run_link(cfg)
        for eye in (eye_diagram, reference_eye):
            with pytest.raises(ParameterError, match="at least 2 transitions"):
                eye(run, cfg)
        assert_rings_match_the_loop(run, cfg)


def _eye_bits(pattern, rng):
    if pattern == "random":
        return tuple(rng.integers(0, 2, int(rng.integers(5, 600))).tolist())
    if pattern == "two_transitions":
        a, b, c = rng.integers(1, 40, 3).tolist()
        return (0,) * a + (1,) * b + (0,) * c
    if pattern == "alternating":
        return (1, 0) * int(rng.integers(2, 300))
    runs = rng.integers(10, 60, int(rng.integers(3, 12))).tolist()
    return sum(((k % 2,) * n for k, n in enumerate(runs)), ())


def same_bytes(new, old):
    new, old = np.asarray(new), np.asarray(old)
    return (new.dtype, new.shape, new.tobytes()) == \
        (old.dtype, old.shape, old.tobytes())


@pytest.mark.parametrize("noise", [0.0, 0.05])
@pytest.mark.parametrize("mode", ["coherent", "thermal"])
@pytest.mark.parametrize("pattern", ["random", "two_transitions",
                                     "alternating", "long_runs"])
def test_eye_and_rings_match_the_per_transition_loops(pattern, mode, noise):
    rng = np.random.default_rng([len(pattern), len(mode), int(noise * 100)])
    for _ in range(3):
        spb = int(rng.integers(8, 161))
        rate = 1e6
        cfg = LinkConfig(bits=_eye_bits(pattern, rng), rate=rate,
                         gamma_m=float(rng.uniform(0.05, 0.4)) * rate,
                         f_if=float(rng.choice([0.0, rate * spb / 4])),
                         noise_rms=noise, samples_per_bit=spb, drive_mode=mode)
        run = run_link(cfg, seed=int(rng.integers(1000)))
        eye, ref = eye_diagram(run, cfg), reference_eye(run, cfg)
        for field in ("t", "segments", "opening", "extinction_ratio"):
            assert same_bytes(getattr(eye, field), getattr(ref, field)), field
        assert_rings_match_the_loop(run, cfg)


def assert_rings_match_the_loop(run, cfg):
    for new, old in zip(ring_segments(run, cfg),
                        reference_ring_segments(run, cfg)):
        assert (new is None) == (old is None)
        if new is not None:
            assert new.label == old.label
            assert same_bytes(new.x, old.x) and same_bytes(new.y, old.y)


def random_link_config(rng):
    """1 to 64 bits, 8 to 64 samples a bit at 1e4 to 1e8 bit/s, gamma_m up
    to the sampling limit 20 gamma_m = rate * samples_per_bit, f_if 0 or
    up to half the sample rate, v0 over six decades, either drive."""
    spb = int(rng.integers(8, 65))
    rate = 10.0 ** rng.uniform(4, 8)
    v0 = 10.0 ** rng.uniform(-3, 3)
    return LinkConfig(
        bits=tuple(rng.integers(0, 2, rng.integers(1, 65)).tolist()),
        rate=rate, gamma_m=rate * spb / 20 * 10.0 ** rng.uniform(-3, 0),
        f_if=float(rng.choice([0.0, rng.uniform(0.0, 0.5 * rate * spb)])),
        v0=v0, noise_rms=float(rng.choice([0.0, 0.1 * v0])),
        samples_per_bit=spb,
        drive_mode=str(rng.choice(["coherent", "thermal"])))


def test_drawn_links_match_the_per_sample_loop():
    rng = np.random.default_rng(33)
    for n in range(300):
        cfg = random_link_config(rng)
        seed = int(rng.integers(1000))
        run = run_link(cfg, seed=seed)
        ref = reference_beta(*reference_drive(cfg,
                                              np.random.default_rng(seed)))
        assert np.max(np.abs(run.beta - ref)) <= 1e-13 * cfg.v0, \
            f"draw {n}: {cfg}"
        if sum(a != b for a, b in zip(cfg.bits, cfg.bits[1:])) >= 2:
            eye, ref = eye_diagram(run, cfg), reference_eye(run, cfg)
            for field in ("t", "segments", "opening", "extinction_ratio"):
                assert same_bytes(getattr(eye, field), getattr(ref, field)), \
                    f"draw {n}, {field}: {cfg}"
            assert_rings_match_the_loop(run, cfg)


def test_link_metrics_bundle():
    cfg = cfg_for(PRBS48, 1e6, gamma_m=7.9e6)
    metrics = link_metrics(run_link(cfg), cfg)
    assert metrics["eye_opening"] > 0.9
    assert relerr(metrics["gamma_m_ringdown"], 7.9e6) < 0.02


def test_link_metrics_leave_out_a_ring_fit_that_raises(monkeypatch):
    cfg = cfg_for(PRBS48, 1e6, gamma_m=7.9e6)
    run = run_link(cfg)

    def fit_ring(segment, kind):
        raise FitError("segment too short to fit")
    monkeypatch.setattr(link, "fit_ring", fit_ring)
    eye, metrics, notes = link._measure(run, cfg)
    assert metrics == link_metrics(run, cfg) == {
        "eye_opening": eye.opening, "extinction_ratio": eye.extinction_ratio}
    assert notes == [f"no gamma_m_{kind} (segment too short to fit)"
                     for kind in ("ringup", "ringdown")]


# ------------------------------------------------------------- thermal drive

def test_thermal_drive_ring_up_ensemble():
    gamma = 4e6
    cfg = LinkConfig(bits=(1,) * 4, rate=1e6, gamma_m=gamma,
                     samples_per_bit=80, drive_mode="thermal", f_if=0.0)
    acc = None
    n_runs = 128
    for seed in range(n_runs):
        run = run_link(cfg, seed=seed)
        n_m = np.abs(run.beta) ** 2
        acc = n_m if acc is None else acc + n_m
    mean = acc / n_runs
    t = np.arange(mean.size) / cfg.sample_rate
    expected = cfg.v0 ** 2 * (1.0 - np.exp(-2 * math.pi * gamma * t))
    mask = expected > 0.2
    assert np.max(np.abs(mean[mask] / expected[mask] - 1.0)) < 0.35
    assert relerr(float(np.mean(mean[expected > 0.99])), cfg.v0 ** 2) < 0.2


# ---------------------------------------------------------------- harmonics

def harmonic_power(spec, f0, k):
    # line power = density * bin width, comparable across record lengths
    df = float(spec.x[1] - spec.x[0])
    total = 0.0
    for sign in (+1, -1):
        idx = int(np.argmin(np.abs(spec.x - sign * k * f0)))
        total += float(spec.y[idx]) * df
    return total


def chi_sq(f, gamma):
    return 1.0 / ((2 * math.pi * f) ** 2 + (math.pi * gamma) ** 2)


def test_harmonic_spectrum_odd_harmonics_only():
    gamma, f0 = 7.9e6, 0.5e6
    cfg = LinkConfig(bits=(1, 0), rate=2 * f0, gamma_m=gamma,
                     samples_per_bit=160)
    spec = harmonic_spectrum(cfg, f0, n_periods=64)
    p1 = harmonic_power(spec, f0, 1)
    p2 = harmonic_power(spec, f0, 2)
    p3 = harmonic_power(spec, f0, 3)
    p4 = harmonic_power(spec, f0, 4)
    assert 10 * math.log10(p2 / p1) < -30.0
    assert 10 * math.log10(p4 / p1) < -30.0
    # filtered square-wave Fourier series: P_k ~ (1/k^2) |chi(k f0)|^2
    expected_ratio = (1.0 / 9.0) * chi_sq(3 * f0, gamma) / chi_sq(f0, gamma)
    assert relerr(p3 / p1, expected_ratio) < 0.10
    # odd peaks present at the first three odd offsets
    for k in (1, 3, 5):
        assert harmonic_power(spec, f0, k) > 1e3 * p2


@pytest.mark.parametrize("f_if", [50e6, 12.3e6])
def test_harmonic_spectrum_removes_the_carrier(f_if):
    # the conjugate carrier undoes the run's carrier, so the spectrum is
    # the baseband one; at 12.3 MHz the phase steps 0.3 cycle per bit
    cfg = LinkConfig(bits=(1, 0), rate=1e6, gamma_m=7.9e6, f_if=f_if,
                     samples_per_bit=160)
    spec = harmonic_spectrum(cfg, 0.5e6)
    base = harmonic_spectrum(LinkConfig(bits=(1, 0), rate=1e6, gamma_m=7.9e6,
                                        f_if=0.0, samples_per_bit=160), 0.5e6)
    assert np.max(np.abs(spec.y - base.y)) <= 1e-12 * np.max(base.y)


def test_harmonic_spectrum_keeps_the_callers_sample_rate():
    # cfg samples at 3.2e9 Hz; its 32 samples per bit at the square wave's
    # 1e6 bit/s would be 3.2e7 Hz < 20 * gamma_m, a SamplingError
    cfg = LinkConfig(bits=(1, 0), rate=100e6, gamma_m=7.9e6)
    spec = harmonic_spectrum(cfg, f0=0.5e6)
    assert len(spec) == 2 * 64 * 3200
    square = LinkConfig(bits=(1, 0), rate=1e6, gamma_m=7.9e6,
                        samples_per_bit=3200)
    np.testing.assert_array_equal(spec.y, harmonic_spectrum(square, 0.5e6).y)


def test_harmonic_fundamental_rolls_off_past_the_linewidth():
    gamma = 2e6
    powers = {}
    for f0 in (20 * gamma, 40 * gamma):
        cfg = LinkConfig(bits=(1, 0), rate=2 * f0, gamma_m=gamma,
                         samples_per_bit=8)
        spec = harmonic_spectrum(cfg, f0, n_periods=64)
        powers[f0] = harmonic_power(spec, f0, 1)
    measured = powers[20 * gamma] / powers[40 * gamma]
    expected = chi_sq(20 * gamma, gamma) / chi_sq(40 * gamma, gamma)
    assert relerr(measured, expected) < 0.2
    assert 3.0 < measured < 5.0               # ~1/f^2 rolloff => factor ~4


class _Reached(Exception):
    pass


@pytest.mark.parametrize("f0,n_periods,samples", [
    (1.0, 64, "8.45e+09"),              # 6.4e7 samples per bit
    (0.5e6, 65535, "1.68e+07"),         # one period past the budget
    (5e-324, 64, "inf"),                # samples per bit overflow
    (1e300, 64, "8.15e+294"),           # 5.1e293 warm-up periods
])
def test_harmonic_spectrum_rejects_runs_over_its_budget(f0, n_periods, samples,
                                                        monkeypatch):
    # the guard must act before run_link allocates anything
    def reached(*args, **kwargs):
        raise _Reached
    monkeypatch.setattr(link, "run_link", reached)
    cfg = LinkConfig(bits=(1, 0), rate=1e6, gamma_m=5e6,
                     samples_per_bit=128)
    with pytest.raises(ParameterError) as err:
        harmonic_spectrum(cfg, f0, n_periods)
    assert str(err.value) == (
        f"f0 = {f0!r} Hz and n_periods = {n_periods} need {samples} "
        f"samples, over the budget of {link.HARMONIC_MAX_SAMPLES}")
    # 2 * (2 warm-up + 65534) periods * 128 samples is the budget exactly
    with pytest.raises(_Reached):
        harmonic_spectrum(cfg, 0.5e6, 65534)


@pytest.mark.parametrize("kw, message", [
    (dict(bits=()), "bits must be nonempty"),
    (dict(bits=(0, 2)), "bits must contain only 0 and 1"),
    (dict(bits=(0, 1), drive_mode="x"),
     "drive_mode must be 'coherent' or 'thermal' (got 'x')"),
], ids=["no_bits", "bit_2", "drive_mode_x"])
def test_link_config_names_a_bad_pattern_or_drive(kw, message):
    with pytest.raises(ParameterError) as err:
        LinkConfig(rate=1e6, gamma_m=7.9e6, **kw)
    assert str(err.value) == message


def test_harmonic_spectrum_needs_two_periods():
    cfg = LinkConfig(bits=(1, 0), rate=1e6, gamma_m=5e6)
    with pytest.raises(ParameterError) as err:
        harmonic_spectrum(cfg, 0.5e6, 1)
    assert str(err.value) == "n_periods must be >= 2 (got 1)"


def test_run_link_takes_a_seed_or_a_generator():
    cfg = LinkConfig(bits=(0, 1, 1, 0), rate=1e6, gamma_m=7.9e6,
                     noise_rms=0.1, drive_mode="thermal")
    by_seed = run_link(cfg, seed=3)
    by_generator = run_link(cfg, seed=np.random.default_rng(3))
    assert np.array_equal(by_seed.envelope.y, by_generator.envelope.y)
