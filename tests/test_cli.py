import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from transducersim import SweepSpec, Trace, write_trace
from transducersim import cli, core, deviceio, link
from transducersim.cli import main
from transducersim.deviceio import load_device, resolve_device_path, write_table
from transducersim.fitting import FitResult
from transducersim.link import eye_diagram
from transducersim.spectra import lumped_mode

from conftest import reference_run, reference_sweep, relerr

MEASURED = str(resolve_device_path("table1_measured"))


def kv(capsys):
    out = {}
    captured = capsys.readouterr().out
    for line in captured.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out, captured


def test_no_arguments_prints_usage_and_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_efficiency_reports_the_chain(capsys):
    code = main(["efficiency", "--device", MEASURED,
                 "--power", "-7.9dbm", "--detuning", "blue"])
    assert code == 0
    out, _ = kv(capsys)
    assert relerr(float(out["eta_tot"]), 1.5e-7) < 0.10
    assert relerr(float(out["n_c"]), 1.0e4) < 0.05
    assert relerr(float(out["eta_em"]), 7e-6) < 0.05


def test_efficiency_bad_power_exits_2(capsys):
    assert main(["efficiency", "--device", MEASURED, "--power", "10",
                 "--detuning", "blue"]) == 2


def test_missing_device_file_exits_2(tmp_path):
    assert main(["efficiency", "--device", str(tmp_path / "none.cfg"),
                 "--detuning", "blue"]) == 2


def test_invalid_device_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "[optical]\nf_o_hz = 194.9e12\nkappa_o_hz = 1e9\n"
        "kappa_oe_hz = 2e9\neta_oc = 0.29\n"
        "[mechanical]\nf_m_hz = 4.32e9\ngamma_mi_hz = 8.4e6\ng_om_hz = 130e3\n"
        "[electromechanical]\ngamma_me_hz = 58.0\nc_idt_f = 0.42e-15\n"
        "z0_ohm = 50.0\n")
    assert main(["efficiency", "--device", str(bad),
                 "--detuning", "blue"]) == 2
    assert "kappa_oe" in capsys.readouterr().err


def test_nan_in_device_file_exits_2(tmp_path, capsys):
    text = Path(MEASURED).read_text()
    nan_dev = tmp_path / "nan.cfg"
    nan_dev.write_text(re.sub(r"(?m)^f_o_hz = .*$", "f_o_hz = nan", text))
    assert main(["efficiency", "--device", str(nan_dev), "--power", "-7.9dbm",
                 "--detuning", "blue"]) == 2
    out, err = capsys.readouterr()
    assert "eta_tot" not in out
    assert "f_o" in err


def test_decode_error_names_the_file(tmp_path, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_trace(Trace(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.4, 0.5])),
                good)
    bad.write_bytes(b"hz,rad\n1.0,\xff\n")
    assert main(["fit", "phase", "--mag", str(good), "--phase", str(bad),
                 "--device", MEASURED]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.csv" in err


def test_spectrum_thermal_writes_csv(tmp_path, capsys):
    out = tmp_path / "thermal.csv"
    code = main(["spectrum", "thermal", "--device", MEASURED,
                 "--out", str(out), "--points", "801"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "hz,lin"
    assert len(lines) == 802


def test_spectrum_soe_writes_csv(tmp_path):
    out = tmp_path / "soe.csv"
    assert main(["spectrum", "soe", "--device", MEASURED,
                 "--out", str(out), "--points", "401"]) == 0
    assert out.exists()


@pytest.mark.parametrize("argv,error", [
    (["spectrum", "soe", "--device", MEASURED, "--points", "-1"],
     "--points must be >= 2 (got -1)"),
    (["swap", "--device", MEASURED, "--points", "-5"],
     "--points must be >= 2 (got -5)"),
    (["spectrum", "soe", "--device", MEASURED, "--points", "0"],
     "--points must be >= 2 (got 0)"),
    (["spectrum", "soe", "--device", MEASURED, "--points", "1"],
     "--points must be >= 2 (got 1)"),
    (["swap", "--device", MEASURED, "--points", "0"],
     "--points must be >= 2 (got 0)"),
    (["swap", "--device", MEASURED, "--points", "1"],
     "--points must be >= 2 (got 1)"),
    (["swap", "--device", MEASURED, "--t-max", "-1"],
     "--t-max must be finite and > 0 (got -1.0)"),
    (["swap", "--device", MEASURED, "--t-max", "1e-322", "--points", "50"],
     "--points 50 over --t-max 1e-322 repeats values; lower --points or "
     "widen the span"),
], ids=["spectrum", "swap", "spectrum_0", "spectrum_1", "swap_0", "swap_1",
        "swap_t_max", "swap_repeated_times"])
def test_negative_points_exits_2(argv, error, tmp_path, capsys):
    # swap checks its grid before it prints the feasibility report
    assert main(argv + ["--rabi-out" if argv[0] == "swap" else "--out",
                        str(tmp_path / "never.csv")]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("rbw", ["inf", "nan"])
def test_spectrum_driven_rejects_non_finite_rbw(rbw, tmp_path, capsys):
    assert main(["spectrum", "driven", "--device", MEASURED, "--power-mu",
                 "-22dbm", "--rbw", rbw, "--points", "401",
                 "--out", str(tmp_path / "never.csv")]) == 2
    assert capsys.readouterr().err == \
        f"error: rbw must be finite and > 0 (got {rbw})\n"


@pytest.mark.parametrize("drive_f", ["0", "-4.3e9", "nan", "inf"])
def test_spectrum_driven_rejects_drive_f_out_of_range(drive_f, tmp_path,
                                                      capsys):
    assert main(["spectrum", "driven", "--device", MEASURED, "--power-mu",
                 "-22dbm", "--drive-f", drive_f, "--points", "401",
                 "--out", str(tmp_path / "never.csv")]) == 2
    assert capsys.readouterr() == ("", "error: drive_f must be finite and > 0 "
                                       f"(got {float(drive_f)!r})\n")
    assert not (tmp_path / "never.csv").exists()


def test_link_outputs_and_metrics(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code = main(["link", "--bits", "0101100111000101", "--rate", "1e6",
                 "--gamma-m", "7.9e6", "--samples-per-bit", "160",
                 "--out-prefix", prefix])
    assert code == 0
    out, _ = kv(capsys)
    assert float(out["eye_opening"]) > 0.9
    assert (tmp_path / "run_envelope.csv").exists()
    assert (tmp_path / "run_eye.csv").exists()
    assert (tmp_path / "run_iq.csv").exists()


def test_link_default_sampling_resolves_the_dynamics(tmp_path, capsys):
    # short bit string and no explicit sampling choice
    code = main(["link", "--bits", "0101", "--rate", "1e6",
                 "--gamma-m", "7.9e6",
                 "--out-prefix", str(tmp_path / "auto")])
    assert code == 0
    out, _ = kv(capsys)
    assert float(out["eye_opening"]) > 0.9


def test_link_names_a_dropped_ring_fit_and_builds_the_eye_once(
        tmp_path, capsys, monkeypatch):
    eyes = []
    monkeypatch.setattr(link, "eye_diagram",
                        lambda *a: eyes.append(a) or eye_diagram(*a))
    assert main(["link", "--bits", "0110", "--rate", "1e9", "--gamma-m",
                 "1e3", "--f-if", "0", "--out-prefix",
                 str(tmp_path / "r")]) == 0
    out, err = capsys.readouterr()
    assert err == "note: no gamma_m_ringup (non-convergence)\n"
    assert out.splitlines()[:3] == ["eye_opening = 0",
                                    "extinction_ratio = 1.000002749",
                                    "gamma_m_ringdown = 1000.000008"]
    assert len(eyes) == 1


def test_link_needs_bits(capsys):
    assert main(["link", "--rate", "1e6", "--gamma-m", "7.9e6"]) == 2


def test_link_takes_bits_or_bits_file_not_both(tmp_path, capsys):
    bits = tmp_path / "bits.txt"
    bits.write_text("0101\n")
    assert main(["link", "--bits", "0101", "--bits-file", str(bits),
                 "--rate", "1e6", "--gamma-m", "7.9e6",
                 "--out-prefix", str(tmp_path / "never")]) == 2
    assert "not allowed with argument --bits" in capsys.readouterr().err
    assert not list(tmp_path.glob("never*"))


@pytest.mark.parametrize("extra,message", [
    (["--rate", "0"], "rate must be finite and > 0"),
    (["--rate", "nan"], "rate must be finite and > 0"),
    (["--gamma-m", "nan"], "gamma_m must be finite and > 0"),
    (["--gamma-m", "inf"], "gamma_m must be finite and > 0"),
    (["--f-if", "nan"], "f_if must be finite and >= 0"),
    (["--bits", ""], "bit string must be nonempty"),
    # the default sampling overflows, or the run outgrows one array
    (["--rate", "1e-300", "--gamma-m", "1e300"], "samples_per_bit"),
    (["--f-if", "1e308"], "samples_per_bit"),
    (["--rate", "1e-300", "--gamma-m", "1e-10", "--f-if", "0"],
     "samples_per_bit"),
    (["--samples-per-bit", "1000000000000000000"], "samples_per_bit"),
], ids=["rate_0", "rate_nan", "gamma_nan", "gamma_inf", "f_if_nan", "no_bits",
        "spb_gamma_overflow", "spb_f_if_overflow", "spb_too_many_samples",
        "spb_explicit_too_many_samples"])
def test_link_invalid_input_with_default_sampling_exits_2(extra, message,
                                                         tmp_path, capsys):
    # a repeated option takes its last value
    assert main(["link", "--bits", "0101", "--rate", "1e6", "--gamma-m", "7.9e6",
                 "--out-prefix", str(tmp_path / "never"), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    # a run that fits in one array may still not fit in memory
    def no_memory(cfg, seed):
        raise MemoryError("Unable to allocate 582. TiB")
    monkeypatch.setattr(cli, "run_link", no_memory)
    assert main(["link", "--bits", "0101", "--rate", "1", "--gamma-m", "1e12",
                 "--f-if", "0", "--out-prefix", str(tmp_path / "never")]) == 2
    assert capsys.readouterr().err == \
        "error: out of memory (Unable to allocate 582. TiB)\n"


def test_link_bits_file_with_a_byte_order_mark(tmp_path, capsys):
    bits = tmp_path / "bits.txt"
    bits.write_bytes(b"\xef\xbb\xbf0101\n")
    assert main(["link", "--bits-file", str(bits), "--rate", "1e6",
                 "--gamma-m", "7.9e6", "--out-prefix", str(tmp_path / "b")]) == 0
    assert main(["link", "--bits", "0101", "--rate", "1e6", "--gamma-m",
                 "7.9e6", "--out-prefix", str(tmp_path / "a")]) == 0
    for suffix in ("_envelope.csv", "_iq.csv"):
        assert (tmp_path / f"a{suffix}").read_bytes() == \
            (tmp_path / f"b{suffix}").read_bytes()


def test_link_aliasing_exits_2(capsys):
    assert main(["link", "--bits", "0101", "--rate", "1e6",
                 "--gamma-m", "7.9e6", "--samples-per-bit", "8"]) == 2


def test_fit_dip_on_synthetic_trace(tmp_path, capsys):
    f_o, ko, koe = 194.9e12, 2.1e9, 0.99e9
    f = np.linspace(f_o - 3 * ko, f_o + 3 * ko, 2001)
    d2 = (1 - 2 * koe / ko) ** 2
    r = (d2 * ko ** 2 + 4 * (f - f_o) ** 2) / (ko ** 2 + 4 * (f - f_o) ** 2)
    path = tmp_path / "dip.csv"
    write_trace(Trace(f, r), path)
    code = main(["fit", "dip", "--trace", str(path), "--branch", "under"])
    assert code == 0
    out, _ = kv(capsys)
    assert relerr(float(out["kappa_oe"].split(" ")[0]), koe) < 0.01


def test_fit_dip_without_dip_exits_3(tmp_path):
    f = np.linspace(0, 1e9, 512)
    path = tmp_path / "flat.csv"
    write_trace(Trace(f, np.ones(512)), path)
    assert main(["fit", "dip", "--trace", str(path)]) == 3


def test_fit_linewidth_from_points_file(tmp_path, capsys):
    n_c = np.geomspace(1e4, 2e5, 10)
    gam = 8.4e6 - 4 * n_c * (130e3) ** 2 / 2.1e9
    path = tmp_path / "pts.csv"
    path.write_text("n_c,gamma_hz\n" + "\n".join(
        f"{a:.17g},{b:.17g}" for a, b in zip(n_c, gam)) + "\n")
    code = main(["fit", "linewidth", "--points", str(path), "--sign", "blue",
                 "--kappa-o", "2.1e9"])
    assert code == 0
    out, _ = kv(capsys)
    assert relerr(float(out["g_om"].split(" ")[0]), 130e3) < 1e-6


@pytest.mark.parametrize("row", ["nan,8.2e6", "2e4,inf"])
def test_fit_linewidth_non_finite_point_exits_2(tmp_path, capsys, row):
    path = tmp_path / "pts.csv"
    path.write_text(f"n_c,gamma_hz\n1e4,8.3e6\n{row}\n3e4,8.1e6\n")
    assert main(["fit", "linewidth", "--points", str(path), "--sign", "blue",
                 "--kappa-o", "2.1e9"]) == 2
    assert capsys.readouterr().err == f"error: {path}:3: non-finite value\n"


@pytest.mark.parametrize("kappa_o", ["nan", "inf", "0", "-2.1e9"])
def test_fit_linewidth_rejects_kappa_o_out_of_range(kappa_o, tmp_path, capsys):
    path = tmp_path / "pts.csv"
    path.write_text("n_c,gamma_hz\n1e4,8.3e6\n5e4,7.9e6\n1e5,7.4e6\n")
    assert main(["fit", "linewidth", "--points", str(path), "--sign", "blue",
                 "--kappa-o", kappa_o]) == 2
    assert capsys.readouterr() == ("", "error: kappa_o must be finite and > 0 "
                                       f"(got {float(kappa_o)!r})\n")
    assert [p.name for p in tmp_path.iterdir()] == ["pts.csv"]


def test_swap_report(capsys):
    code = main(["swap", "--device", MEASURED, "--gamma-mi", "3e6"])
    assert code == 0
    out, _ = kv(capsys)
    assert relerr(float(out["z_q_ohm"]), 525.0) < 0.01
    assert relerr(float(out["g_em_hz"]), 0.8e6) < 0.05
    assert out["feasible"] == "True"
    assert relerr(float(out["c_em"]), 0.7) < 0.15


def test_sweep_writes_table(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--device", MEASURED, "--param", "pump.n_c",
                 "--start", "1e3", "--stop", "1e4", "--count", "5",
                 "--scale", "log", "--quantity", "c_om",
                 "--quantity", "eta_tot", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pump.n_c,c_om,eta_tot"
    assert len(lines) == 6


CLI_SWEEPS = {
    "log_range": (["--param", "pump.n_c", "--start", "1e3", "--stop", "1e5",
                   "--count", "25", "--scale", "log"],
                  (("pump.n_c", tuple(np.geomspace(1e3, 1e5, 25).tolist())),)),
    "one_row": (["--param", "pump.n_c", "--start", "2.5e4", "--stop", "1e5",
                 "--count", "1"],
                (("pump.n_c", (2.5e4,)),)),
    "default_count_and_scale": (
        ["--param", "pump.n_c", "--start", "1e3", "--stop", "1e4"],
        (("pump.n_c", tuple(np.linspace(1e3, 1e4, 10).tolist())),)),
    "zipped_blue_red": (["--param", "pump.detuning", "--values",
                         "-4.32e9,4.32e9,-1e9,0,-2e9,3e9", "--param",
                         "pump.n_c", "--values", "1e3,2e3,3e3,4e3,5e3,6e3"],
                        (("pump.detuning",
                          (-4.32e9, 4.32e9, -1e9, 0.0, -2e9, 3e9)),
                         ("pump.n_c", (1e3, 2e3, 3e3, 4e3, 5e3, 6e3)))),
}


@pytest.mark.parametrize("params,targets", CLI_SWEEPS.values(), ids=CLI_SWEEPS)
def test_sweep_bytes_are_the_reference_rows(tmp_path, capsys, params, targets):
    # n_c is asked for twice, and printed twice
    quantities = ("n_c", "gamma_tot", "eta_tot", "c_om", "n_c")
    header = [path for path, _ in targets] + list(quantities)
    rows = [[row[name] for name in header] for row in reference_sweep(
        SweepSpec(targets, quantities), load_device(MEASURED))]
    argv = ["sweep", "--device", MEASURED, *params,
            *(arg for q in quantities for arg in ("--quantity", q))]
    assert main(argv) == 0
    assert capsys.readouterr() == ("".join(
        ",".join(line) + "\n" for line in
        [header, *([f"{v:.10g}" for v in row] for row in rows)]), "")
    out, want = tmp_path / "sweep.csv", tmp_path / "want.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"rows = {len(rows)}\nout = {out}\n", "")
    write_table(want, header, rows)
    assert out.read_bytes() == want.read_bytes()


def test_stdout_sweep_across_blocks_is_the_reference_rows(capsys, monkeypatch):
    # 11 cells a block over 4 columns: 2 rows a block, 25 rows in 13 blocks
    monkeypatch.setattr(deviceio, "_WRITE_CELLS", 11)
    params, targets = CLI_SWEEPS["log_range"]
    quantities = ("c_om", "eta_tot", "c_om")
    header = [path for path, _ in targets] + list(quantities)
    rows = [[row[name] for name in header] for row in reference_sweep(
        SweepSpec(targets, quantities), load_device(MEASURED))]
    assert main(["sweep", "--device", MEASURED, *params,
                 *(arg for q in quantities for arg in ("--quantity", q))]) == 0
    assert capsys.readouterr() == ("".join(
        ",".join(line) + "\n" for line in
        [header, *([f"{v:.10g}" for v in row] for row in rows)]), "")


@pytest.mark.parametrize("argv,message", [
    (["--param", "pump.n_c", "--start", "1e3", "--stop", "inf", "--count", "3",
      "--quantity", "n_c"], "--stop must be finite (got inf)"),
    (["--param", "pump.n_c", "--start", "-1e308", "--stop", "1e308",
      "--quantity", "n_c"],
     "--start and --stop span a grid that overflows (got -1e+308, 1e+308)"),
    (["--param", "pump.n_c", "--start", "1", "--stop", "1.0000000000000004",
      "--count", "5", "--quantity", "n_c"],
     "--count 5 over --start 1.0 to --stop 1.0000000000000004 repeats "
     "values; lower --count or widen the span"),
    (["--param", "pump.n_c", "--values", "1e3", "--start", "5", "--quantity",
      "n_c"],
     "--values cannot be combined with --start/--stop/--count/--scale"),
    (["--param", "pump.n_c", "--values", "1e3", "--count", "5", "--scale",
      "log", "--quantity", "n_c"],
     "--values cannot be combined with --start/--stop/--count/--scale"),
    (["--param", "pump.n_c", "--values", "1e3", "--scale", "linear",
      "--quantity", "n_c"],
     "--values cannot be combined with --start/--stop/--count/--scale"),
    (["--param", "pump.n_c", "--values", "262190", "--quantity", "c_om"],
     "backaction rate 8400020.853080569 Hz >= intrinsic linewidth "
     "8400000.0 Hz: parametric oscillation threshold"),
    (["--param", "pump.n_c", "--param", "temperature", "--values", "1e3",
      "--quantity", "n_c"], "each --param needs a matching --values list"),
    (["--param", "pump.n_c", "--param", "temperature", "--start", "1",
      "--stop", "2", "--quantity", "n_c"],
     "range sweeps take exactly one --param"),
    (["--param", "pump.n_c", "--start", "1", "--quantity", "n_c"],
     "range sweeps need --start and --stop"),
    (["--param", "pump.n_c", "--start", "0", "--stop", "1e4", "--scale",
      "log", "--quantity", "n_c"], "log scale needs --start > 0"),
], ids=["stop_inf", "grid_overflow", "repeated_values", "values_and_range",
        "values_and_count",
        "values_and_default_scale", "threshold", "two_params_one_values",
        "range_of_two_params", "range_without_stop", "log_scale_from_0"])
def test_sweep_input_errors_are_one_line(capsys, argv, message):
    assert_one_line_error(capsys, ["sweep", "--device", MEASURED, *argv],
                          message)


def assert_one_line_error(capsys, argv, message):
    """argv exits 2 with `error: message` alone on stderr, nothing on
    stdout, and no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["--f-start", "1", "--f-stop", "inf"],
     "--f-stop must be finite (got inf)"),
    (["--f-start", "-1e308", "--f-stop", "1e308"], "--f-start and --f-stop "
     "span a grid that overflows (got -1e+308, 1e+308)"),
    (["--f-start", "nan"], "--f-start must be finite (got nan)"),
    (["--f-start", "1", "--f-stop", "1.0000000000000004"], "--points 5 over "
     "--f-start 1.0 to --f-stop 1.0000000000000004 repeats values; lower "
     "--points or widen the span"),
], ids=["stop_inf", "grid_overflow", "start_nan", "repeated_values"])
def test_spectrum_grid_errors_are_one_line(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert_one_line_error(capsys, ["spectrum", "soe", "--device", MEASURED,
                                   *argv, "--points", "5", "--out", str(out)],
                          message)
    assert not out.exists()


def _lorentz_csv(path, f, header="hz,lin\n"):
    y = 1.01 + 1.0 / (1.0 + ((f - 4.3e9) / 2e6) ** 2)
    path.write_text(header + "".join(f"{a!r},{b!r}\n"
                                     for a, b in zip(f.tolist(), y.tolist())))


@pytest.mark.parametrize("case", ["headerless_trace", "reference_short",
                                  "malformed_first_point", "tab_in_point"])
def test_csv_input_errors_are_one_line(tmp_path, capsys, case):
    trace, ref, pts = (tmp_path / name for name in ("t.csv", "r.csv", "p.csv"))
    f = np.linspace(4.2e9, 4.4e9, 2001)
    _lorentz_csv(trace, f)
    _lorentz_csv(ref, np.linspace(4.0e9, 4.05e9, 101))
    linewidth = ["fit", "linewidth", "--points", str(pts), "--sign", "blue",
                 "--kappa-o", "2.11e9"]
    if case == "headerless_trace":
        _lorentz_csv(trace, f, header="")
        argv = ["fit", "lorentz", "--trace", str(trace), "--n-peaks", "1"]
        message = (f"{trace}:1: header must be 'x_unit,y_unit' "
                   f"(got {trace.read_text().splitlines()[0]!r})")
    elif case == "reference_short":
        argv = ["fit", "lorentz", "--trace", str(trace), "--n-peaks", "1",
                "--reference", str(ref)]
        message = ("reference spans x 4000000000.0 to 4050000000.0, which "
                   "does not cover the trace's 4200000000.0 to 4400000000.0")
    elif case == "malformed_first_point":
        pts.write_text("1000,8.39e6x\n2000,8.38e6\n3000,8.37e6\n4000,8.36e6\n")
        argv, message = linewidth, \
            f"{pts}:1: cannot parse numbers in '1000,8.39e6x'"
    else:
        pts.write_text("n_c,gamma_hz\n1000,\t8.39e6\n2000,8.38e6\n"
                       "3000,8.37e6\n")
        argv, message = linewidth, (f"{pts}:2: expected two comma-separated "
                                    "values (got '1000,\\t8.39e6')")
    assert_one_line_error(capsys, argv, message)


def test_fit_dip_on_directory_exits_2(tmp_path, capsys):
    assert main(["fit", "dip", "--trace", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_fit_dip_on_non_utf8_trace_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"hz,lin\n1.0,\xff\n")
    assert main(["fit", "dip", "--trace", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv,name", [
    (["sweep", "--device", MEASURED, "--param", "pump.n_c", "--values", "1e3",
      "--quantity", "n_th", "--temperature", "nan"], "temperature"),
    (["sweep", "--device", MEASURED, "--param", "temperature", "--values",
      "4,nan", "--quantity", "n_th"], "temperature"),
    (["sweep", "--device", MEASURED, "--param", "temperature", "--values",
      "4,inf", "--quantity", "n_th"], "temperature"),
    (["sweep", "--device", MEASURED, "--param", "drive.p_mu", "--values",
      "1e-7,nan", "--quantity", "coherent_phonons"], "p_mu"),
    (["spectrum", "thermal", "--device", MEASURED, "--temperature", "inf",
      "--out", "never_written.csv"], "temperature"),
    # every swept path and --temperature is checked, read or not
    (["sweep", "--device", MEASURED, "--param", "drive.p_mu", "--values",
      "inf,3", "--quantity", "eta_em"], "drive.p_mu"),
    (["sweep", "--device", MEASURED, "--param", "temperature", "--values",
      "1e12,nan,1", "--quantity", "eta_em"], "temperature"),
    (["sweep", "--device", MEASURED, "--param", "pump.n_c", "--values", "1,2",
      "--quantity", "eta_em", "--temperature", "nan"], "temperature"),
], ids=["sweep_nan_t", "sweep_t_column_nan", "sweep_t_column_inf",
        "sweep_p_mu_nan", "spectrum_inf_t", "sweep_unread_p_mu",
        "sweep_unread_t_column", "sweep_unread_t"])
def test_non_finite_temperature_or_drive_exits_2(argv, name, capsys, tmp_path,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("dbm,message", [
    ("1e4", "[pump] p_on_chip must be finite and >= 0 (got inf)"),
    ("-inf", "non-finite number '-inf' for 'p_on_chip_dbm'"),
])
def test_non_finite_or_overflowing_pump_power_exits_2(tmp_path, capsys, dbm,
                                                      message):
    text = Path(MEASURED).read_text()
    dev = tmp_path / "big.cfg"
    dev.write_text(re.sub(r"(?m)^p_on_chip_dbm = -7.9$",
                          f"p_on_chip_dbm = {dbm}", text))
    assert main(["efficiency", "--device", str(dev)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("argv,error", [
    (["efficiency", "--device", MEASURED, "--n-c", "1e300", "--detuning",
      "red"],
     "gamma_om must be finite (got inf); gamma_tot must be finite (got inf); "
     "c_om must be finite (got inf); eta_tot must be finite (got nan)"),
    (["sweep", "--device", MEASURED, "--param", "pump.detuning", "--values",
      "-4.32e9,-4.32e9", "--param", "pump.n_c", "--values", "1e3,1e300",
      "--quantity", "eta_tot", "--quantity", "c_om", "--out", "{out}"],
     "eta_tot must be finite (got nan); c_om must be finite (got inf)"),
    (["sweep", "--device", MEASURED, "--param", "pump.detuning", "--values",
      "4.32e9,4.32e9", "--param", "pump.n_c", "--values", "1e3,1e300",
      "--quantity", "eta_tot", "--quantity", "c_om", "--out", "{out}"],
     "backaction rate inf Hz >= intrinsic linewidth 8400000.0 Hz: parametric "
     "oscillation threshold"),
    # (2 pi 1e200)^2 overflows, so the derived n_c is its limit 0, as in
    # a sweep, and disagrees with the declared one
    (["efficiency", "--device", "{f_m_1e200}", "--power", "-7.9dbm",
      "--n-c", "1"],
     "declared n_c=1 disagrees with n_c=0 derived from p_on_chip=0.0001622 W"),
    # the link's samples are finite, but the eye's mean high level overflows
    (["link", "--bits", "0101", "--rate", "1e6", "--gamma-m", "7.9e6",
      "--v0", "1e308", "--f-if", "0", "--out-prefix", "{out}"],
     "numeric overflow (eye mean high level is inf)"),
    # |inf - 1| / inf is nan, which fails the agreement check
    (["spectrum", "soe", "--device", MEASURED, "--power", "1e300w", "--n-c",
      "1", "--out", "{out}"],
     "declared n_c=1 disagrees with n_c=inf derived from p_on_chip=1e+300 W"),
    (["fit", "linewidth", "--points", "{points}", "--sign", "blue",
      "--kappa-o", "1.7e308"],
     "kappa_o = 1.7e+308 Hz gives g_om = inf +/- 0.0 Hz, which is not finite"),
    (["swap", "--device", MEASURED, "--gamma-mi", "1.7e308", "--rabi-out",
      "{out}"],
     "the Rabi exchange rates overflow at kappa_mu = 1200000.0 Hz, gamma_mi "
     "= 1.7e+308 Hz, g_em = 809582.3929062795 Hz"),
    (["link", "--bits", "0110", "--rate", "1e-320", "--gamma-m", "1e-320",
      "--f-if", "0", "--samples-per-bit", "33", "--out-prefix", "{out}"],
     "rate = 1e-320 bit/s: 132 samples at 3.29996e-319 Hz span a time axis "
     "that overflows"),
    (["link", "--bits", "0110", "--rate", "1.7e308", "--f-if", "1.7e308",
      "--noise-rms", "1.7e308", "--gamma-m", "1", "--samples-per-bit", "8",
      "--out-prefix", "{out}"],
     "rate = 1.7e+308 bit/s times samples_per_bit = 8 gives a sample rate "
     "that overflows"),
    # n_c = 0 times g_om^2 = inf is nan, which the threshold check quoted
    (["efficiency", "--device", "{g_om_1e200}", "--n-c", "0"],
     "backaction rate is not finite: g_om = 1e+200 Hz overflows when squared "
     "(n_c = 0.0)"),
    (["sweep", "--device", "{g_om_1e200}", "--param", "pump.n_c", "--values",
      "1,0", "--quantity", "c_om", "--out", "{out}"],
     "backaction rate is not finite: g_om = 1e+200 Hz overflows when squared "
     "(n_c = 0.0)"),
    # 4 n_c g^2 overflows in the sideband rate of a mode
    (["spectrum", "thermal", "--device", "table1_sim_adjusted", "--out",
      "{out}", "--points", "2", "--n-c", "1e300"],
     "the thermal sideband rate n_th * 4 n_c g^2 / kappa_o is not finite at "
     "n_th = 1401.066368201296, n_c = 1e+300, g = 139000.0 Hz"),
    (["spectrum", "driven", "--device", "table1_sim_adjusted", "--out",
      "{out}", "--points", "2", "--n-c", "1e300", "--power-mu", "-30dbm"],
     "the thermal sideband rate n_th * 4 n_c g^2 / kappa_o is not finite at "
     "n_th = 1401.066368201296, n_c = 1e+300, g = 139000.0 Hz"),
    # the drive's photon flux, and with it n_coh and the peak area, overflow
    (["spectrum", "driven", "--device", MEASURED, "--out", "{out}",
      "--points", "64", "--power-mu", "1e300w"],
     "p_mu = 1e+300 W gives the mode at 4320000000.0 Hz n_coh = inf coherent "
     "phonons and a drive peak area of inf, which is not finite"),
    # the thermal envelope's scan overflows
    (["link", "--bits", "0101", "--rate", "1e6", "--gamma-m", "7.9e6",
      "--v0", "1e308", "--f-if", "0", "--drive-mode", "thermal",
      "--out-prefix", "{out}"],
     "v0 = 1e+308 V drives the mechanical envelope past the float range"),
], ids=["efficiency_n_c", "sweep_n_c", "sweep_n_c_blue", "efficiency_f_m",
        "link_eye", "spectrum_soe_power", "fit_linewidth_kappa_o",
        "swap_gamma_mi", "link_rate", "link_sample_rate", "efficiency_g_om",
        "sweep_g_om", "spectrum_thermal_n_c", "spectrum_driven_n_c",
        "spectrum_driven_p_mu", "link_thermal_v0"])
def test_chain_overflow_exits_2(argv, error, tmp_path, capsys):
    # finite inputs whose outputs overflow: a named error, no inf or nan
    # on stdout, no CSV and no RuntimeWarning
    devices = {}
    for name, keys in (("f_m_1e200", "f_m_hz|detuning_hz"),
                       ("g_om_1e200", "g_om_hz")):
        devices[name] = tmp_path / f"big_{name}.cfg"
        devices[name].write_text(re.sub(rf"(?m)^({keys}) = .*$", r"\1 = 1e200",
                                        Path(MEASURED).read_text()))
    points = tmp_path / "points.csv"
    points.write_text("n_c,gamma_hz\n1e4,8.3e6\n5e4,7.9e6\n1e5,7.4e6\n")
    out = tmp_path / "never.csv"
    argv = [a.format(out=out, points=points, **devices) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not list(tmp_path.glob("never*"))


def test_a_fit_report_prints_errors_notes_and_exit_3(monkeypatch, tmp_path,
                                                     capsys):
    # the report's layout on hand-built values: a param with an error
    # prints `value +/- error` at 10 and 4 digits, one without prints its
    # value, the residual norm prints at 6 digits, and notes go to stdout
    result = FitResult(
        params={"f_o": 4321500000.123456, "kappa_o": 1e9 / 3,
                "depth": 0.123456789012345},
        residual_norm=0.0123456789, converged=False,
        notes=("non-convergence", "a second note"),
        cov=np.diag([123.456789 ** 2, (1e-3 / 3) ** 2]),
        param_order=("f_o", "kappa_o"))
    monkeypatch.setattr(cli, "fit_optical_dip", lambda trace, branch: result)
    trace = tmp_path / "dip.csv"
    write_trace(Trace(np.arange(8.0), np.ones(8)), trace)
    assert main(["fit", "dip", "--trace", str(trace)]) == 3
    assert capsys.readouterr() == (
        "f_o = 4321500000 +/- 123.5\n"
        "kappa_o = 333333333.3 +/- 0.0003333\n"
        "depth = 0.123456789\n"
        "residual_norm = 0.0123457\n"
        "converged = False\n"
        "note: non-convergence\n"
        "note: a second note\n", "")


def test_link_notes_go_to_stderr(monkeypatch, tmp_path, capsys):
    # a metric left out is a note on stderr; the metrics and the files
    # written stay on stdout
    monkeypatch.setattr(cli, "_measure", lambda run, cfg: (
        None, {"eye_opening": 0.25, "extinction_ratio": 1e12},
        ["a hand-built note"]))
    prefix = tmp_path / "link"
    assert main(["link", "--bits", "0110", "--rate", "1e6", "--gamma-m",
                 "7.9e6", "--out-prefix", str(prefix)]) == 0
    assert capsys.readouterr() == (
        f"eye_opening = 0.25\nextinction_ratio = 1e+12\n"
        f"envelope = {prefix}_envelope.csv\niq = {prefix}_iq.csv\n",
        "note: a hand-built note\n")


def test_link_peaks_at_its_run_and_eye(tmp_path, capsys):
    # tracemalloc sees numpy's buffers. A run's outputs take 48 bytes a
    # sample (time, beta, I, Q, envelope) and the eye of 2000 random bits
    # about 8 more; the files are written a block of rows at a time after
    # beta is dropped, where a full I/Q table copy added 24 bytes a sample
    # on top of the run
    args = ["--rate", "1e6", "--gamma-m", "7.9e6", "--noise-rms", "0.05",
            "--out-prefix", str(tmp_path / "link")]
    assert main(["link", "--bits", "0110", *args]) == 0  # built-once tables
    bits = np.random.default_rng(6).integers(0, 2, 2000).tolist()
    samples = len(bits) * link.LinkConfig(
        bits=tuple(bits), rate=1e6, gamma_m=7.9e6).samples_per_bit + 1
    tracemalloc.start()
    try:
        assert main(["link", "--bits", "".join(map(str, bits)), *args]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 60 * samples


@pytest.mark.parametrize("v0", ["1e156", "1e200"])
def test_ring_fits_of_a_huge_envelope_match_unit_scale(v0, tmp_path, capsys):
    # the ring fits run on the segment scaled by a power of two, where the
    # sums of squares of 1e156 and up overflowed
    def gammas(v0):
        assert main(["link", "--bits", "0101", "--rate", "1e6", "--gamma-m",
                     "7.9e6", "--v0", v0, "--f-if", "0", "--out-prefix",
                     str(tmp_path / v0)]) == 0
        out, _ = kv(capsys)
        return out["gamma_m_ringup"], out["gamma_m_ringdown"]
    assert gammas(v0) == gammas("1")


def test_fit_phase_on_shifted_axes_exits_2(tmp_path, capsys):
    # a phase trace one 30 kHz sample off the magnitude's axis is within
    # np.allclose's default rtol at 4.3 GHz, but it is not the same axis
    f = np.linspace(4.0e9, 4.6e9, 20001)
    mag, phase = tmp_path / "mag.csv", tmp_path / "phase.csv"
    write_trace(Trace(f, np.ones_like(f)), mag)
    write_trace(Trace(f + (f[1] - f[0]), np.zeros_like(f)), phase)
    assert main(["fit", "phase", "--mag", str(mag), "--phase", str(phase),
                 "--device", MEASURED]) == 2
    assert capsys.readouterr() == \
        ("", "error: magnitude and phase traces must share one axis\n")


def test_runtime_imports_are_stdlib_numpy_or_the_package():
    # the modules importing the package and its CLI adds; a site .pth file
    # may load others before, so those are left out
    code = ("import sys; before = set(sys.modules); "
            "import transducersim, transducersim.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "transducersim.cli" in added
    allowed = set(sys.stdlib_module_names) | {"numpy", "transducersim"}
    assert [m for m in added if m.split(".")[0] not in allowed] == []


def test_import_does_not_load_the_csv_formatter(tmp_path):
    # _g17 builds its tables when it is imported: at the first CSV written.
    # That CSV's one cell, just below 0.1, has floor(np.log10) one too high,
    # so its k is corrected to a power of ten not yet made
    code = ("import sys; import transducersim, transducersim.cli; "
            "print('transducersim._g17' in sys.modules); "
            "transducersim.deviceio.write_table(sys.argv[1], ['a'], "
            "[[0.09999999999999999]]); "
            "print('transducersim._g17' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    path = tmp_path / "first.csv"
    assert subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          check=True, capture_output=True,
                          text=True).stdout == "False\nTrue\n"
    assert path.read_text() == "a\n%.17g\n" % 0.09999999999999999


# small runs of every command that writes a CSV, with the files it writes
CSV_RUNS = {
    "link": (["link", "--bits", "0110100111", "--rate", "1e6", "--gamma-m",
              "7.9e6", "--drive-mode", "thermal", "--noise-rms", "0.05",
              "--out-prefix", "{dir}/l"],
             ("l_envelope.csv", "l_iq.csv", "l_eye.csv")),
    "spectrum": (["spectrum", "driven", "--device", MEASURED, "--power-mu",
                  "-22dbm", "--points", "2001", "--out", "{dir}/s.csv"],
                 ("s.csv",)),
    "sweep": (["sweep", "--device", MEASURED, "--param", "pump.n_c",
               "--start", "1e3", "--stop", "1e5", "--count", "500", "--scale",
               "log", "--quantity", "eta_tot", "--quantity", "gamma_tot",
               "--out", "{dir}/w.csv"], ("w.csv",)),
    "swap": (["swap", "--device", MEASURED, "--gamma-mi", "3e6",
              "--rabi-out", "{dir}/r.csv"], ("r.csv",)),
    # k_B T rounds to 0: n_th is its limit 0, as in a sweep
    "spectrum_t_1e-320": (["spectrum", "thermal", "--device", MEASURED,
                           "--temperature", "1e-320", "--points", "11",
                           "--out", "{dir}/t.csv"], ("t.csv",)),
}


@pytest.mark.parametrize("argv,files", CSV_RUNS.values(), ids=CSV_RUNS)
def test_csv_cells_are_their_values_in_percent_17g(tmp_path, capsys, argv,
                                                   files):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 0
    capsys.readouterr()
    for name in files:
        text = (tmp_path / name).read_text()
        body = text.splitlines()[1:]
        want = [",".join("%.17g" % float(cell) for cell in line.split(","))
                for line in body]
        # the first line that differs, not a diff of every line
        assert next((pair for pair in zip(body, want) if pair[0] != pair[1]),
                    None) is None
        assert body and text.endswith("\n")
        assert text.count("\n") == len(body) + 1


def test_fit_with_more_parameters_than_points_exits_2(tmp_path, capsys):
    f = np.linspace(4.2e9, 4.45e9, 11)
    path = tmp_path / "short.csv"
    write_trace(Trace(f, 1.0 + 1.0 / (1.0 + ((f - 4.3e9) / 1e7) ** 2)), path)
    assert main(["fit", "lorentz", "--trace", str(path),
                 "--n-peaks", "50"]) == 2
    assert capsys.readouterr() == \
        ("", "error: more parameters (151) than residuals (11)\n")


def test_spectrum_and_sweep_below_expm1_overflow(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["spectrum", "thermal", "--device", MEASURED, "--temperature",
                 "1e-6", "--out", str(out), "--points", "11"]) == 0
    assert kv(capsys)[0]["n_th"] == "0"
    assert out.read_text().splitlines()[1].endswith(",0")
    assert main(["sweep", "--device", MEASURED, "--param", "temperature",
                 "--values", "1e-6,4", "--quantity", "n_th"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["temperature,n_th",
                                                        "1e-06,0"]


def test_sweep_bad_values_token_exits_2(capsys):
    assert main(["sweep", "--device", MEASURED, "--param", "pump.n_c",
                 "--values", "1e3,abc", "--quantity", "c_om"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'abc'" in err


@pytest.mark.parametrize("params, message", [
    (["pump.n_c", "1e3", "pump.n_c", "2e3"],
     "parameter path 'pump.n_c' is swept twice"),
    (["drive.p_mu", "1e-3", "drive.p_mu_w", "2e-3"],
     "parameter path 'drive.p_mu_w' is swept twice (as 'drive.p_mu')"),
], ids=["same_path", "p_mu_alias"])
def test_sweep_repeated_path_exits_2(tmp_path, capsys, params, message):
    # both columns set one value: the first would print a value never used
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--device", MEASURED, "--quantity", "n_c", "--out",
            str(out)]
    for path, values in zip(params[::2], params[1::2]):
        argv += ["--param", path, "--values", values]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_sweep_out_to_directory_exits_2(tmp_path, capsys):
    assert main(["sweep", "--device", MEASURED, "--param", "pump.n_c",
                 "--start", "1e3", "--stop", "1e4", "--quantity", "c_om",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_unknown_quantity_exits_2(capsys):
    assert main(["sweep", "--device", MEASURED, "--param", "pump.n_c",
                 "--start", "1", "--stop", "2", "--quantity", "bogus"]) == 2


def run_twice_and_compare(tmp_path, argv_template, outputs):
    blobs = []
    for tag in ("a", "b"):
        argv = [arg.replace("{tag}", tag) for arg in argv_template]
        assert main(argv) == 0
        blobs.append(tuple((tmp_path / name.replace("{tag}", tag)).read_bytes()
                           for name in outputs))
    assert blobs[0] == blobs[1]


def test_link_determinism_with_noise(tmp_path):
    run_twice_and_compare(
        tmp_path,
        ["--seed", "42", "link", "--bits", "01011001", "--rate", "1e6",
         "--gamma-m", "7.9e6", "--samples-per-bit", "160",
         "--noise-rms", "0.05", "--out-prefix", str(tmp_path / "det_{tag}")],
        ["det_{tag}_envelope.csv", "det_{tag}_eye.csv", "det_{tag}_iq.csv"])


def test_spectrum_determinism(tmp_path):
    run_twice_and_compare(
        tmp_path,
        ["spectrum", "driven", "--device", MEASURED, "--power-mu", "-22dbm",
         "--out", str(tmp_path / "drv_{tag}.csv"), "--points", "2001"],
        ["drv_{tag}.csv"])


def test_seed_changes_noisy_output(tmp_path):
    for seed, tag in (("1", "a"), ("2", "b")):
        assert main(["--seed", seed, "link", "--bits", "01011001",
                     "--rate", "1e6", "--gamma-m", "7.9e6",
                     "--samples-per-bit", "160", "--noise-rms", "0.05",
                     "--out-prefix", str(tmp_path / f"seed_{tag}")]) == 0
    a = (tmp_path / "seed_a_envelope.csv").read_bytes()
    b = (tmp_path / "seed_b_envelope.csv").read_bytes()
    assert a != b


# sha256 of the CSVs this run writes: any change to a written byte fails
# here. f_if = 0 keeps the carrier exactly 1, so only the integrator, the
# seeded noise and the formatting reach the files.
PIN_ARGS = ["--seed", "7", "link", "--bits", "0110100111", "--rate", "1e6",
            "--gamma-m", "7.9e6", "--f-if", "0", "--samples-per-bit", "160",
            "--noise-rms", "0.05"]
LINK_CSV_SHA256 = {
    "envelope": "df5a8a78ee0ccffa884ff751dfa429198e1ae036b5679074d2dece06e47c5d81",
    "iq": "57930707f1dfb9d219b0563f0218e95b7151ed6984f3ee29e0661940946dde63",
    "eye": "fe89b5fa2e94b94bcb6310b92c54f34935dd21725f3fb7cf6336aa8d709bc064",
}
# the same run with the thermal drive, recorded while every bit's row was
# scanned; only the 1-bits' rows are scanned now
THERMAL_LINK_CSV_SHA256 = {
    "envelope": "e1abef224ff96e47827660338bdb5eb1ed52bfd2d0fff3c34b4e6dfc6c8c9eda",
    "iq": "8720a2dc3f9b4b3207c4b9f898b537153fc708ad8cfd39dcfff4f22ad202cf86",
    "eye": "f817147ec366b58ef0834280af903af5da536965b9904b4502cf68817104ca76",
}
# the same run through the per-sample loop the closed form replaced
LOOP_LINK_CSV_SHA256 = {
    "envelope": "e3a72679659bf492b012f1e3f3d5c42d86ebc76ec79237a936e4a5a494d34dc8",
    "iq": "154b35e21264162bf36956fe0f3aeb52edf07ffe814cc6c828cf0b480ebe8085",
    "eye": "9d241ca707cbea5cd9b66d5599c3f1ba0f2830ef6321fb61343acf97946bac00",
}

# the run at the default sampling rule (158 samples per bit here) and the
# default f_if = 50 MHz, recorded with the factored carrier: its phases are
# reduced modulo one cycle, so the last digits of I and Q differ from a
# carrier evaluated at 2*pi*f_if*t
DEFAULT_SAMPLING_ARGS = ["--seed", "7", "link", "--bits", "0110100111",
                         "--rate", "1e6", "--gamma-m", "7.9e6",
                         "--noise-rms", "0.05"]
DEFAULT_SAMPLING_CSV_SHA256 = {
    "envelope": "f974ef4330f1c7caf8e0954c4292e240680b4079936b15c62993d35c0d81c3f0",
    "iq": "5780f44e219074cdcf3e6b500ecdf99f943c125d33d390128eceb9b868b2576a",
    "eye": "4c0c578ca2abac8ccf478fa6cb9824a8c6f85c8e677ce419cf33b859494e9e9f",
}


def link_csv_digests(tmp_path, tag, args=PIN_ARGS):
    assert main(args + ["--out-prefix", str(tmp_path / tag)]) == 0
    return {name: hashlib.sha256(
        (tmp_path / f"{tag}_{name}.csv").read_bytes()).hexdigest()
        for name in LINK_CSV_SHA256}


def test_link_csv_bytes_are_pinned(tmp_path):
    assert link_csv_digests(tmp_path, "pin") == LINK_CSV_SHA256


def test_thermal_link_csv_bytes_are_pinned(tmp_path):
    assert link_csv_digests(tmp_path, "thermal",
                            PIN_ARGS + ["--drive-mode", "thermal"]) == \
        THERMAL_LINK_CSV_SHA256


def test_link_csv_bytes_at_default_sampling_are_pinned(tmp_path):
    assert link_csv_digests(tmp_path, "auto", DEFAULT_SAMPLING_ARGS) == \
        DEFAULT_SAMPLING_CSV_SHA256


def test_link_csvs_match_the_per_sample_loop(tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "run_link", reference_run)
        assert link_csv_digests(tmp_path, "loop") == LOOP_LINK_CSV_SHA256
    link_csv_digests(tmp_path, "new")
    for name in LINK_CSV_SHA256:
        old, new = (np.loadtxt(tmp_path / f"{tag}_{name}.csv", delimiter=",",
                               skiprows=1) for tag in ("loop", "new"))
        scale = np.maximum(np.abs(old), np.abs(new))
        if name == "iq":     # noise can cancel the signal: floor at v0 = 1
            scale = np.maximum(scale, 1.0)
        assert np.all(np.abs(new - old) <= 1e-14 * scale), name


# ------------------------------------------------ one override rule (pump)

MEASURED_TEXT = Path(MEASURED).read_text()
DETUNED_TEXT = re.sub(r"(?m)^detuning_hz = .*$", "detuning_hz = 4.0e9",
                      MEASURED_TEXT)
NO_PUMP_TEXT = re.sub(r"(?ms)^\[pump\]\n.*?\n\n", "", MEASURED_TEXT)


def device_file(tmp_path, text, name="device"):
    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    return str(path)


def sweep_rows(capsys, *argv):
    assert main(["sweep", *argv]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def test_efficiency_keeps_the_files_detuning(tmp_path, capsys):
    # detuning_hz = 4.0e9 against f_m = 4.32e9: efficiency and sweep read
    # the same pump
    dev = device_file(tmp_path, DETUNED_TEXT)
    assert main(["efficiency", "--device", dev]) == 0
    eff = kv(capsys)[0]
    row, = sweep_rows(capsys, "--device", dev, "--param", "temperature",
                      "--values", "300", "--quantity", "n_c",
                      "--quantity", "eta_tot")
    assert (eff["n_c"], eff["eta_tot"]) == (row["n_c"], row["eta_tot"]) \
        == ("11562.73768", "1.813737848e-07")


def test_detuning_flag_sets_the_sign_of_the_files_detuning(tmp_path, capsys):
    dev = device_file(tmp_path, DETUNED_TEXT)
    assert main(["efficiency", "--device", dev, "--detuning", "red"]) == 0
    eff = kv(capsys)[0]
    row, = sweep_rows(capsys, "--device", dev, "--param", "pump.detuning",
                      "--values", "-4.0e9", "--quantity", "n_c",
                      "--quantity", "gamma_tot", "--quantity", "eta_tot")
    assert eff["detuning_sign"] == "red"
    assert (eff["n_c"], eff["gamma_tot_hz"], eff["eta_tot"]) == \
        (row["n_c"], row["gamma_tot"], row["eta_tot"])


def test_zipped_drive_does_not_depend_on_path_order(capsys):
    # both given: both are kept, and they agree within 5 %
    pairs = [["--param", "pump.n_c", "--values", "6170,12340"],
             ["--param", "pump.p_on_chip", "--values", "1e-4,2e-4"]]
    columns = [[row["n_c"] for row in sweep_rows(
        capsys, "--device", MEASURED, *first, *second, "--quantity", "n_c")]
        for first, second in (pairs, pairs[::-1])]
    assert columns == [["6170", "12340"]] * 2


def test_zipped_drive_that_disagrees_exits_2_in_either_order(capsys):
    pairs = [["--param", "pump.n_c", "--values", "1e3,1e4"],
             ["--param", "pump.p_on_chip", "--values", "1e-4,1e-4"]]
    for first, second in (pairs, pairs[::-1]):
        assert main(["sweep", "--device", MEASURED, *first, *second,
                     "--quantity", "n_c"]) == 2
        assert capsys.readouterr() == ("", (
            "error: declared n_c=1000 disagrees with n_c=6170 derived from "
            "p_on_chip=0.0001 W\n"))


def test_pump_without_a_pump_section_is_blue_detuned_by_f_m(tmp_path, capsys):
    dev = device_file(tmp_path, NO_PUMP_TEXT)
    assert main(["efficiency", "--device", dev, "--n-c", "1e3"]) == 0
    eff = kv(capsys)[0]
    row, = sweep_rows(capsys, "--device", dev, "--param", "pump.n_c",
                      "--values", "1e3", "--quantity", "eta_tot")
    assert eff["detuning_sign"] == "blue"
    assert eff["eta_tot"] == row["eta_tot"] == "1.444300411e-08"


def test_no_pump_drive_is_one_error_for_cli_and_sweep(tmp_path, capsys):
    dev = device_file(tmp_path, NO_PUMP_TEXT)
    errors = []
    for argv in (["efficiency", "--device", dev],
                 ["efficiency", "--device", dev, "--detuning", "red"],
                 ["sweep", "--device", dev, "--param", "device.g_om",
                  "--values", "1e5", "--quantity", "eta_tot"],
                 ["sweep", "--device", dev, "--param", "pump.detuning",
                  "--values", "1e9", "--quantity", "eta_o"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(err)
    assert errors == [f"error: {core.NO_PUMP}\n"] * 4
    assert "[pump]" in core.NO_PUMP


def test_red_pump_on_a_zero_detuning_exits_2(tmp_path, capsys):
    # abs(0.0) * -1.0 is -0.0, which PumpState.sign calls blue
    dev = device_file(tmp_path, re.sub(r"(?m)^detuning_hz = .*$",
                                       "detuning_hz = 0", MEASURED_TEXT))
    assert main(["efficiency", "--device", dev, "--detuning", "red"]) == 2
    assert capsys.readouterr() == (
        "", "error: a red pump needs a nonzero detuning\n")


@pytest.mark.parametrize("argv", [
    ["sweep", "--param", "pump.n_c", "--values", "262190",
     "--quantity", "gamma_tot"],
    ["sweep", "--param", "pump.n_c", "--values", "262190",
     "--quantity", "c_om"],
    ["sweep", "--param", "pump.n_c", "--values", "262190",
     "--quantity", "eta_tot"],
    ["efficiency", "--n-c", "262190"],
    ["spectrum", "soe", "--n-c", "262190", "--out", "o.csv"],
    ["spectrum", "thermal", "--n-c", "262190", "--out", "o.csv"],
    ["spectrum", "driven", "--n-c", "262190", "--power-mu", "-30dbm",
     "--out", "o.csv"],
], ids=["gamma_tot", "c_om", "eta_tot", "efficiency", "spectrum_soe",
        "spectrum_thermal", "spectrum_driven"])
def test_one_blue_threshold_for_every_quantity(argv, capsys, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    # gamma_om = gamma_mi (8.4 MHz) while C_om, taken at gamma_mi +
    # gamma_me, is still 0.99999558: every quantity is past the threshold
    assert main([*argv, "--device", MEASURED]) == 2
    assert capsys.readouterr() == (
        "", "error: backaction rate 8400020.853080569 Hz >= intrinsic "
            "linewidth 8400000.0 Hz: parametric oscillation threshold\n")
    assert not (tmp_path / "o.csv").exists()


# ------------------------------------------- spectra of a device without modes

NO_MODES_TEXT = MEASURED_TEXT[:MEASURED_TEXT.index("[[modes]]")]


def lumped_modes_text():
    mode = lumped_mode(load_device(MEASURED).device)
    return NO_MODES_TEXT + "[[modes]]\n" + "".join(
        f"{key} = {value:.17g}\n" for key, value in (
            ("f_hz", mode.f), ("gamma_hz", mode.gamma), ("g_hz", mode.g),
            ("phi_rad", mode.phi), ("gamma_e_hz", mode.gamma_e)))


@pytest.mark.parametrize("kind", ["thermal", "soe"])
def test_spectrum_without_modes_uses_the_lumped_mode(kind, tmp_path, capsys):
    csvs = []
    for name, text in (("lumped", NO_MODES_TEXT),
                       ("explicit", lumped_modes_text())):
        out = tmp_path / f"{name}.csv"
        assert main(["spectrum", kind, "--device",
                     device_file(tmp_path, text, name), "--points", "201",
                     "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_sweep_without_modes_uses_the_lumped_mode(tmp_path, capsys):
    rows = [sweep_rows(capsys, "--device", device_file(tmp_path, text, name),
                       "--param", "drive.p_mu", "--values", "1e-3",
                       "--quantity", "coherent_phonons")
            for name, text in (("lumped", NO_MODES_TEXT),
                               ("explicit", lumped_modes_text()))]
    assert rows[0] == rows[1]
    assert float(rows[0][0]["coherent_phonons"]) > 0


# --------------------------------------------------------- named failures

def test_spectrum_driven_without_power_mu_exits_2(tmp_path, capsys):
    out = tmp_path / "driven.csv"
    assert main(["spectrum", "driven", "--device", MEASURED, "--out",
                 str(out), "--points", "11"]) == 2
    assert capsys.readouterr() == \
        ("", "error: spectrum driven needs --power-mu\n")
    assert not out.exists()


def test_spectrum_driven_off_the_grid_exits_2(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["spectrum", "driven", "--device", MEASURED, "--power-mu",
                 "-22dbm", "--drive-f", "1e300", "--points", "101", "--out",
                 str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: drive peak at drive_f = 1e+300 Hz, rbw = 50000.0 Hz lies "
            "outside the grid's cells (4235160000 to 4404840000 Hz)\n")
    assert not out.exists()


def test_fit_linewidth_without_kappa_o_or_device_exits_2(tmp_path, capsys):
    assert_one_line_error(capsys, [
        "fit", "linewidth", "--points", str(tmp_path / "never.csv"),
        "--sign", "blue"], "fit linewidth needs --kappa-o or --device")


def test_swap_without_a_qubit_section_exits_2(tmp_path, capsys):
    text = re.sub(r"(?ms)^\[qubit\]\n.*?\n\n", "", MEASURED_TEXT)
    assert "[qubit]" not in text
    assert_one_line_error(capsys, [
        "swap", "--device", device_file(tmp_path, text, "no_qubit")],
        "device file has no [qubit] section")


def test_seed_without_a_command_prints_usage_and_exits_2(capsys):
    assert main(["--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: transducersim")


def test_fit_lorentz_reference_with_linear_background_exits_2(tmp_path,
                                                              capsys):
    f = np.linspace(4.2e9, 4.45e9, 401)
    path = tmp_path / "peak.csv"
    write_trace(Trace(f, 1.0 + 1.0 / (1.0 + ((f - 4.3e9) / 1e7) ** 2)), path)
    assert main(["fit", "lorentz", "--trace", str(path), "--n-peaks", "1",
                 "--background", "linear", "--reference", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: --reference fits a constant background and cannot be "
            "combined with --background linear\n")


def test_fit_with_a_zero_residual_exits_3(tmp_path, capsys):
    # a trace divided by itself leaves no noise to estimate the
    # uncertainties from, so no +/- 0 is printed
    path = tmp_path / "th.csv"
    assert main(["spectrum", "thermal", "--device", MEASURED, "--points",
                 "401", "--out", str(path)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fit", "lorentz", "--trace", str(path), "--n-peaks", "1",
                     "--reference", str(path)]) == 3
    assert caught == []
    assert capsys.readouterr() == (
        "", "fit error: zero residual: no noise to estimate uncertainties "
            "from\n")


def test_link_with_huge_noise_warns_nothing(tmp_path, capsys):
    # the ring fits' covariance, mapped back by 2**k, overflows: its
    # variances are inf, and numpy prints no warning; stderr holds only
    # the notes naming the two dropped ring fits
    assert main(["link", "--bits", "0101", "--rate", "1e6", "--gamma-m",
                 "7.9e6", "--noise-rms", "1e200", "--f-if", "0",
                 "--out-prefix", str(tmp_path / "noisy")]) == 0
    out, err = capsys.readouterr()
    assert err == "".join(
        f"note: no gamma_m_{kind} (poor-fit: residual large; check segment "
        "kind)\n" for kind in ("ringup", "ringdown"))
    assert out.splitlines()[:2] == ["eye_opening = 0",
                                    "extinction_ratio = 0.5264532555"]


def test_link_noise_overflow_is_named(tmp_path, capsys):
    assert main(["link", "--bits", "0101", "--rate", "1e6", "--gamma-m",
                 "7.9e6", "--drive-mode", "thermal", "--noise-rms", "1e308",
                 "--out-prefix", str(tmp_path / "never")]) == 2
    assert capsys.readouterr() == \
        ("", "error: numeric overflow (I trace is not finite)\n")
    assert not list(tmp_path.glob("never*"))
