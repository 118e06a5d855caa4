import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from transducersim import Trace, write_trace
from transducersim import cli
from transducersim.cli import main
from transducersim.deviceio import resolve_device_path

from conftest import reference_run, relerr

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


def test_link_needs_bits(capsys):
    assert main(["link", "--rate", "1e6", "--gamma-m", "7.9e6"]) == 2


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
], ids=["sweep_nan_t", "sweep_t_column_nan", "sweep_t_column_inf",
        "sweep_p_mu_nan", "spectrum_inf_t"])
def test_non_finite_temperature_or_drive_exits_2(argv, name, capsys, tmp_path,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


def test_sweep_bad_values_token_exits_2(capsys):
    assert main(["sweep", "--device", MEASURED, "--param", "pump.n_c",
                 "--values", "1e3,abc", "--quantity", "c_om"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'abc'" in err


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
# the same run through the per-sample loop the closed form replaced
LOOP_LINK_CSV_SHA256 = {
    "envelope": "e3a72679659bf492b012f1e3f3d5c42d86ebc76ec79237a936e4a5a494d34dc8",
    "iq": "154b35e21264162bf36956fe0f3aeb52edf07ffe814cc6c828cf0b480ebe8085",
    "eye": "9d241ca707cbea5cd9b66d5599c3f1ba0f2830ef6321fb61343acf97946bac00",
}


def link_csv_digests(tmp_path, tag):
    assert main(PIN_ARGS + ["--out-prefix", str(tmp_path / tag)]) == 0
    return {name: hashlib.sha256(
        (tmp_path / f"{tag}_{name}.csv").read_bytes()).hexdigest()
        for name in LINK_CSV_SHA256}


def test_link_csv_bytes_are_pinned(tmp_path):
    assert link_csv_digests(tmp_path, "pin") == LINK_CSV_SHA256


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
