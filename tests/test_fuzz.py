"""Seeded fuzzing of the CLI's exit-code contract.

Each case draws an argv for one subcommand from fixed value sets: flag
values at and beyond the float limits, powers from -300 to 300 dBm and
in watts, the bundled devices, and small traces. It runs cli.main in
process with every warning an error. The contract is that the exit code
is 0, 2 or 3, that no exception escapes, and that an exit 0 leaves no
nan or inf on stdout or in a CSV it wrote. Every size is bounded
(--points, the bit count, --samples-per-bit), so a case takes
milliseconds. The samples-per-bit default that LinkConfig derives is
drawn through LinkConfig alone, which allocates no run. A failure names
the argv.
"""

import math
import re
import shlex
import shutil
import warnings

import numpy as np
import pytest

from transducersim.cli import main
from transducersim.errors import TransducerError
from transducersim.link import LinkConfig

VALUES = ("0", "-0.0", "-1", "1e-320", "1e-300", "1e-9", "1", "3", "4.32e9",
          "1e12", "1e300", "1.7e308", "inf", "-inf", "nan")
POWERS = ("-300dbm", "-120dbm", "-30dbm", "-7.9dbm", "0dbm", "20dbm",
          "300dbm", "0w", "1e300w", "infw", "nanw", "-1w")
DEVICES = ("table1_measured", "table1_sim_adjusted", "table1_sim_initial")
COUNTS = ("-1", "0", "1", "2", "3", "17", "64")
SWEEP_PATHS = ("pump.n_c", "pump.p_on_chip", "pump.detuning", "temperature",
               "drive.p_mu", "device.gamma_mi", "device.g_om", "device.kappa_o",
               "device.f_m", "qubit.c_q", "device.bogus")
QUANTITIES = ("n_c", "gamma_om", "gamma_tot", "c_om", "eta_o", "eta_em",
              "eta_tot", "n_th", "coherent_phonons", "coherent_peak_area",
              "z_q", "g_em", "c_em", "threshold_gamma")
CASES = 60              # per subcommand
NOT_FINITE = re.compile(r"(?<![\w.])[-+]?(nan|inf)(?!\w)", re.IGNORECASE)


def _pick(rng, options):
    return str(options[rng.integers(len(options))])


def _value(rng, *typical):
    """A flag value: one of the flag's typical values, or one time in four
    (always, for a flag with none) one of VALUES, so most cases reach the
    arithmetic with one or two extreme values."""
    return _pick(rng, VALUES if not typical or rng.random() < 0.25 else typical)


def _maybe(rng, flag, value):
    """[flag, value] half of the time, else []."""
    return [flag, value] if rng.random() < 0.5 else []


def _write(path, x, y, header="hz,lin"):
    """A two-column CSV of x and y written with repr, so a value that
    overflowed is an inf in the file."""
    path.write_text("\n".join([header] + [
        f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())]) + "\n")


def _trace(rng, path, shape):
    """A small trace CSV of a dip, phase or peak shape whose center and
    scale are each drawn from VALUES three times in ten."""
    n = int(_pick(rng, (1, 2, 5, 64, 64)))
    center, span, scale = shape[:3]
    if rng.random() < 0.3:
        center = float(_value(rng))
    if rng.random() < 0.3:
        scale = float(_value(rng))
    with np.errstate(all="ignore"):
        u = np.linspace(-1.0, 1.0, n)
        x = center + span * u
        y = scale * shape[3](u) + 0.01 * scale * rng.standard_normal(n)
    _write(path, x, y)
    return str(path)


DIP = (194.9e12, 6e9, 1.0, lambda u: (0.1 + 9 * u * u) / (1 + 9 * u * u))
PEAKS = (4.32e9, 1e8, 1e-6, lambda u: 3 + sum(
    1 / (1 + ((u - c) / 0.05) ** 2) for c in (-0.4, 0.0, 0.5)))
MAG = (0.0, 8e9, 1.0, lambda u: 1 / np.sqrt(1 + ((u - 0.5) / 0.1) ** 2))
PHASE = (0.0, 8e9, 1.0, lambda u: np.arctan((u - 0.5) / 0.1))


def _efficiency(rng, d):
    return (["efficiency", "--device", _pick(rng, DEVICES)]
            + _maybe(rng, "--power", _pick(rng, POWERS))
            + _maybe(rng, "--n-c", _value(rng, "1e4"))
            + _maybe(rng, "--detuning", _pick(rng, ("blue", "red"))))


def _spectrum(rng, d):
    kind = _pick(rng, ("thermal", "driven", "soe"))
    return (["spectrum", kind, "--device", _pick(rng, DEVICES),
             "--out", str(d / "spectrum.csv"), "--points", _pick(rng, COUNTS)]
            + _maybe(rng, "--temperature", _value(rng, "300", "0.01"))
            + _maybe(rng, "--power", _pick(rng, POWERS))
            + _maybe(rng, "--n-c", _value(rng, "1e4"))
            + _maybe(rng, "--detuning", _pick(rng, ("blue", "red")))
            + (["--power-mu", _pick(rng, POWERS)] if kind == "driven"
               and rng.random() < 0.8 else [])
            + _maybe(rng, "--drive-f", _value(rng, "4.32e9"))
            + _maybe(rng, "--rbw", _value(rng, "50e3"))
            + _maybe(rng, "--f-start", _value(rng, "4.2e9"))
            + _maybe(rng, "--f-stop", _value(rng, "4.4e9")))


def _fit(rng, d):
    model = _pick(rng, ("dip", "phase", "linewidth", "lorentz"))
    if model == "dip":
        return (["fit", "dip", "--trace", _trace(rng, d / "dip.csv", DIP)]
                + _maybe(rng, "--branch", _pick(rng, ("under", "over"))))
    if model == "phase":
        return ["fit", "phase", "--mag", _trace(rng, d / "mag.csv", MAG),
                "--phase", _trace(rng, d / "arg.csv", PHASE),
                "--device", _pick(rng, DEVICES)]
    if model == "linewidth":
        n_c = np.geomspace(1e4, 1e5, int(_pick(rng, (1, 2, 3, 8))))
        with np.errstate(all="ignore"):
            gamma = (8.4e6 - 4 * n_c * 130e3 ** 2 / 2.11e9) * float(
                _value(rng, "1", "1"))
        points = d / "points.csv"
        _write(points, n_c, gamma, "n_c,gamma_hz")
        return (["fit", "linewidth", "--points", str(points),
                 "--sign", _pick(rng, ("blue", "red"))]
                + _maybe(rng, "--kappa-o", _value(rng, "2.11e9"))
                + _maybe(rng, "--device", _pick(rng, DEVICES)))
    return (["fit", "lorentz", "--trace", _trace(rng, d / "peaks.csv", PEAKS),
             "--n-peaks", _pick(rng, ("-1", "0", "1", "2", "3", "3"))]
            + _maybe(rng, "--background", _pick(rng, ("constant", "linear")))
            + _maybe(rng, "--reference", _trace(rng, d / "ref.csv", PEAKS)))


def _link(rng, d):
    bits = "".join(_pick(rng, "01") for _ in range(rng.integers(1, 17)))
    if rng.random() < 0.2:
        (d / "bits.txt").write_text(_pick(rng, (bits, "01x1", "")))
        source = ["--bits-file", str(d / "bits.txt")]
    else:
        source = ["--bits", bits]
    return (["--seed", _pick(rng, ("0", "1", "7", "-1")), "link", *source,
             "--rate", _value(rng, "1e6"), "--gamma-m", _value(rng, "1e5"),
             "--samples-per-bit", _pick(rng, ("-1", "7", "8", "33", "64", "64")),
             "--out-prefix", str(d / "link")]
            + _maybe(rng, "--f-if", _value(rng, "0", "1e6"))
            + _maybe(rng, "--v0", _value(rng, "1"))
            + _maybe(rng, "--noise-rms", _value(rng, "0.05"))
            + _maybe(rng, "--drive-mode", _pick(rng, ("coherent", "thermal"))))


def _swap(rng, d):
    return (["swap", "--device", _pick(rng, DEVICES)]
            + _maybe(rng, "--gamma-mi", _value(rng, "3e6"))
            + _maybe(rng, "--rabi-out", str(d / "rabi.csv"))
            + _maybe(rng, "--t-max", _value(rng, "1e-6"))
            + ["--points", _pick(rng, COUNTS)]
            + (["--lossless"] if rng.random() < 0.3 else []))


def _sweep(rng, d):
    argv = ["sweep", "--device", _pick(rng, DEVICES)]
    paths = list(dict.fromkeys(_pick(rng, SWEEP_PATHS)
                               for _ in range(rng.integers(1, 3))))
    if rng.random() < 0.6:
        n = int(rng.integers(1, 4))
        for path in paths:
            argv += ["--param", path, "--values",
                     ",".join(_value(rng, "1e3", "1e5") for _ in range(n))]
    else:
        argv += ["--param", paths[0], "--start", _value(rng, "1e3"),
                 "--stop", _value(rng, "1e5")]
        argv += (_maybe(rng, "--count", _pick(rng, COUNTS))
                 + _maybe(rng, "--scale", _pick(rng, ("linear", "log"))))
    for _ in range(rng.integers(1, 3)):
        argv += ["--quantity", _pick(rng, QUANTITIES + ("bogus",))]
    return (argv + _maybe(rng, "--temperature", _value(rng, "300"))
            + _maybe(rng, "--power-mu", _pick(rng, POWERS))
            + _maybe(rng, "--out", str(d / "sweep.csv")))


DRAW = {"efficiency": _efficiency, "spectrum": _spectrum, "fit": _fit,
        "link": _link, "swap": _swap, "sweep": _sweep}


@pytest.mark.parametrize("command", list(DRAW))
def test_cli_keeps_the_exit_code_contract(command, tmp_path, capsys):
    rng = np.random.default_rng([1, list(DRAW).index(command)])
    for case in range(CASES):
        d = tmp_path / f"case{case}"
        d.mkdir()
        argv = DRAW[command](rng, d)
        inputs = {p.name for p in d.iterdir()}
        where = f"transducersim {shlex.join(argv)}"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
        except (Exception, SystemExit) as exc:   # a warning is an Exception
            pytest.fail(f"{where} raised {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), f"{where} exited {code}: {err}"
        if code == 0:
            assert not NOT_FINITE.search(out), f"{where} printed:\n{out}"
            for csv in d.iterdir():
                if csv.name not in inputs:
                    text = csv.read_text()
                    assert not NOT_FINITE.search(text), f"{where} wrote {csv}"
        shutil.rmtree(d)


def test_derived_samples_per_bit_keeps_the_contract():
    # the default samples per bit is derived from rate, gamma_m and f_if;
    # LinkConfig alone checks it, so no draw allocates a run
    rng = np.random.default_rng(1)
    for _ in range(300):
        kwargs = {"rate": float(_value(rng, "1e6", "1e-300")),
                  "gamma_m": float(_value(rng, "7.9e6", "1e12")),
                  "f_if": float(_value(rng, "0", "50e6")),
                  "bits": (1, 0) * int(rng.integers(1, 9)),
                  "drive_mode": _pick(rng, ("coherent", "thermal"))}
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cfg = LinkConfig(**kwargs)
        except TransducerError:
            continue
        except Exception as exc:      # a warning is an Exception
            pytest.fail(f"LinkConfig({kwargs}) raised {exc!r}")
        spb = cfg.samples_per_bit
        assert isinstance(spb, int) and spb >= 32, kwargs
        assert math.isfinite(cfg.sample_rate), kwargs


@pytest.mark.parametrize("argv,code,out,err", [
    (["--seed", "-1", "link", "--bits", "01", "--rate", "1e6", "--gamma-m",
      "1e5", "--out-prefix", "{d}/link"],
     2, "", "error: --seed must be finite and >= 0 (got -1)\n"),
    # a one-value range is its start, whatever the stop
    (["sweep", "--device", "table1_measured", "--param", "pump.n_c",
      "--start", "3", "--stop", "-0.0", "--count", "1", "--scale", "log",
      "--quantity", "c_om"],
     0, "pump.n_c,c_om\n3,1.144203339e-05\n", ""),
    (["fit", "lorentz", "--trace", "{d}/one.csv", "--n-peaks", "3"],
     2, "", "error: more parameters (10) than residuals (1)\n"),
    (["fit", "dip", "--trace", "{d}/dip.csv"],
     2, "", "error: numeric overflow (residual sum of squares at the start "
     "is inf)\n"),
    (["fit", "linewidth", "--points", "{d}/points.csv", "--sign", "blue",
      "--kappa-o", "2.11e9"],
     2, "", "error: numeric overflow (residual sum of squares is inf)\n"),
    # the trace's span overflows; a constant background never reads it
    (["fit", "lorentz", "--trace", "{d}/wide.csv", "--n-peaks", "0"],
     0, "bg0 = 1.333333333 +/- 0.3333\nresidual_norm = 0.471405\n"
     "converged = True\n", ""),
    # a linear background's slope is per unit of that span
    (["fit", "lorentz", "--trace", "{d}/wide.csv", "--n-peaks", "0",
      "--background", "linear"],
     2, "", "error: the trace's x span -1.7e+308 to 1.7e+308 overflows, so a "
     "linear background cannot be fitted\n"),
], ids=["link_seed", "sweep_log_one_value", "lorentz_one_point",
        "dip_near_the_float_limit", "linewidth_near_the_float_limit",
        "lorentz_span_overflows", "lorentz_linear_span_overflows"])
def test_classes_the_fuzzer_found(argv, code, out, err, tmp_path, capsys):
    # one argv of each class this module found first: each raised a
    # ValueError or a RuntimeWarning
    u = np.linspace(-1.0, 1.0, 64)
    _write(tmp_path / "one.csv", np.array([4.32e9]), np.array([3.0]))
    _write(tmp_path / "dip.csv", 194.9e12 + 6e9 * u,
           1.5e308 * ((0.1 + 9 * u * u) / (1 + 9 * u * u)))
    n_c = np.geomspace(1e4, 1e5, 8)
    _write(tmp_path / "points.csv", n_c, 8e306 - 3e300 * n_c, "n_c,gamma_hz")
    _write(tmp_path / "wide.csv", np.array([-1.7e308, 0.0, 1.7e308]),
           np.array([1.0, 2.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([a.format(d=tmp_path) for a in argv]) == code
    assert capsys.readouterr() == (out, err)
