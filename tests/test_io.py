import hashlib
import io
import math
import re
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from transducersim import (DeviceBundle, DeviceFileError, MechanicalMode,
                           ParameterError, SweepSpec, Trace, TraceError,
                           TransducerError, driven_spectrum, load_device,
                           rabi_swap_sim, read_trace, run_sweep, s_oe_spectrum,
                           sweep_table, thermal_occupation, thermal_spectrum,
                           write_device, write_trace)
from transducersim import deviceio
from transducersim.deviceio import (_ALTERNATIVES, _SCHEMA, _field, dbm_to_w,
                                    parse_device, parse_device_text,
                                    parse_power, read_points,
                                    resolve_device_path, w_to_dbm,
                                    write_eye, write_table)
from transducersim.link import EyeDiagram

from transducersim.sweep import QUANTITIES, evaluate, override
from transducersim.trace import axis, grid

from conftest import reference_read_trace, reference_sweep, relerr


# --------------------------------------------------------------- device files

def test_table1_measured_values(measured):
    d = measured.device
    assert d.f_o == 194.9e12
    assert d.kappa_oe == 0.99e9
    assert math.isclose(d.kappa_oi, 1.12e9, rel_tol=1e-12)
    assert d.f_m == 4.32e9
    assert d.gamma_mi == 8.4e6
    assert d.gamma_me == 58.0
    assert d.g_om == 130e3
    assert d.eta_oc == 0.29
    assert measured.pump is not None and measured.pump.detuning == 4.32e9
    assert measured.qubit is not None and measured.qubit.c_q == 70e-15
    assert len(measured.modes) == 1


def test_all_bundled_devices_load():
    for name in ("table1_measured", "table1_sim_adjusted", "table1_sim_initial"):
        bundle = load_device(name)
        assert bundle.device.kappa_o > bundle.device.kappa_oe


MINIMAL = """
[optical]
f_o_hz = 194.9e12
kappa_o_hz = 2.1e9
kappa_oe_hz = 0.99e9
eta_oc = 0.29

[mechanical]
f_m_hz = 4.32e9
gamma_mi_hz = 8.4e6
g_om_hz = 130e3

[electromechanical]
gamma_me_hz = 58.0
c_idt_f = 0.42e-15
z0_ohm = 50.0
"""


def test_minimal_file_parses():
    bundle = parse_device_text(MINIMAL)
    assert bundle.device.kappa_o == 2.1e9
    assert bundle.pump is None and bundle.qubit is None and bundle.modes == ()


def test_extrinsic_exceeding_total_names_both_keys():
    text = MINIMAL.replace("kappa_oe_hz = 0.99e9", "kappa_oe_hz = 3.0e9")
    with pytest.raises(DeviceFileError) as err:
        parse_device_text(text)
    message = str(err.value)
    assert "kappa_oe" in message and "kappa_o" in message


def test_missing_unit_suffix_is_named():
    text = MINIMAL.replace("g_om_hz = 130e3", "g_om: 130e3")
    with pytest.raises(DeviceFileError) as err:
        parse_device_text(text)
    assert "g_om_hz" in str(err.value)


def test_unknown_key_rejected():
    text = MINIMAL + "\n[pump]\ndetuning_hz = 4.32e9\nn_c = 1e4\ncolor = 3\n"
    with pytest.raises(DeviceFileError) as err:
        parse_device_text(text)
    assert "color" in str(err.value)


def test_all_violations_reported_at_once():
    text = MINIMAL.replace("g_om_hz = 130e3", "g_om: 130e3") \
                  .replace("z0_ohm = 50.0", "z0_ohm = fifty\nbogus_key = 1")
    with pytest.raises(DeviceFileError) as err:
        parse_device_text(text)
    assert len(err.value.violations) >= 3


def test_device_round_trip(tmp_path, measured):
    path = tmp_path / "round.cfg"
    write_device(measured, path)
    again = parse_device(path)
    assert again == measured


def test_resolve_device_env_override(tmp_path, monkeypatch, measured):
    custom = DeviceBundle(device=measured.device)
    write_device(custom, tmp_path / "mine.cfg")
    monkeypatch.setenv("TRANSDUCERSIM_DEVICE_PATH", str(tmp_path))
    assert resolve_device_path("mine") == tmp_path / "mine.cfg"
    with pytest.raises(ParameterError):
        resolve_device_path("no_such_device")


def test_parse_power():
    assert relerr(parse_power("-7.9dbm"), 1.6218100973589298e-4) < 1e-12
    assert parse_power("2.5e-3w") == 2.5e-3
    assert parse_power("0.1W") == 0.1
    with pytest.raises(ParameterError):
        parse_power("10")
    for text in ("nandbm", "nanw", "infw", "-infdbm", "1e4dbm", "-1w", "xw"):
        with pytest.raises(ParameterError):
            parse_power(text)


def test_dbm_to_w_overflows_to_inf():
    assert dbm_to_w(1e4) == math.inf
    assert dbm_to_w(-math.inf) == 0.0


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_w_to_dbm_needs_a_finite_positive_power(w):
    # nan and inf passed through as nan and inf dBm
    with pytest.raises(ParameterError) as err:
        w_to_dbm(w)
    assert str(err.value) == \
        f"power must be finite and > 0 W for dBm (got {w!r})"


def test_w_to_dbm_inverts_dbm_to_w():
    assert abs(w_to_dbm(dbm_to_w(-7.9)) + 7.9) < 1e-12


PUMP = "\n[pump]\ndetuning_hz = 4.32e9\np_on_chip_dbm = -7.9\n"
QUBIT = "\n[qubit]\nc_q_f = 70e-15\nf_mu_hz = 4.32e9\nkappa_mu_hz = 1.2e6\n"
MODE = "\n[[modes]]\nf_hz = 4.32e9\ngamma_hz = 8.4e6\ng_hz = 130e3\n"
FULL = MINIMAL + PUMP + QUBIT + MODE
MEASURED = resolve_device_path("table1_measured").read_text()


def edit(*changes, text=FULL):
    """text with each (old, new) pair replaced once; old must occur."""
    for old, new in changes:
        assert old in text, old
        text = text.replace(old, new, 1)
    return text


# one text per kind of violation -> the exact violation list
VIOLATIONS = {
    "unknown_section": (FULL + "[bogus]\nx_hz = 1\n", [
        "<string>:31: unknown section [bogus]",
        "<string>:32: 'x_hz' outside any section"]),
    "unknown_block": (FULL + "[[bogus]]\nx_hz = 1\n", [
        "<string>:31: unknown block [[bogus]]",
        "<string>:32: 'x_hz' outside any section"]),
    "key_outside_section": ("f_o_hz = 1\n" + FULL, [
        "<string>:1: 'f_o_hz' outside any section"]),
    "bad_line": (edit(("eta_oc = 0.29", "eta_oc = 0.29\njust words")), [
        "<string>:7: expected 'key = value' (got 'just words')"]),
    "duplicate_section": (FULL + "[qubit]\n", [
        "<string>:31: duplicate section [qubit]"]),
    "duplicate_key": (edit(("g_om_hz = 130e3", "g_om_hz = 130e3\ng_om_hz = 1")), [
        "<string>:12: duplicate key 'g_om_hz'"]),
    "missing_suffix": (edit(("g_om_hz = 130e3", "g_om: 130e3")), [
        "<string>:11: 'g_om' is missing its unit suffix; expected 'g_om_hz'"]),
    "unknown_key": (edit(("eta_oc = 0.29", "eta_oc = 0.29\ncolor = 3")), [
        "<string>:7: unknown key 'color' in [optical]"]),
    "unparsable_number": (edit(("z0_ohm = 50.0", "z0_ohm = fifty")), [
        "<string>:16: cannot parse number 'fifty' for 'z0_ohm'"]),
    "missing_section": (edit(("[mechanical]\nf_m_hz = 4.32e9\ngamma_mi_hz = 8.4e6\n"
                              "g_om_hz = 130e3\n", "")), [
        "<string>: missing required section [mechanical]"]),
    "missing_key": (edit(("c_idt_f = 0.42e-15\n", "")), [
        "<string>: [electromechanical] missing key 'c_idt_f'"]),
    "kappa_both": (edit(("kappa_o_hz = 2.1e9",
                         "kappa_o_hz = 2.1e9\nkappa_oi_hz = 1.11e9")), [
        "<string>: [optical] give kappa_o_hz or kappa_oi_hz, not both"]),
    "kappa_neither": (edit(("kappa_o_hz = 2.1e9\n", "")), [
        "<string>: [optical] needs kappa_o_hz or kappa_oi_hz"]),
    "pump_power_both": (edit(("p_on_chip_dbm = -7.9",
                              "p_on_chip_dbm = -7.9\np_on_chip_w = 1e-4")), [
        "<string>: [pump] give p_on_chip_dbm or p_on_chip_w, not both"]),
    "pump_power_unsuffixed": (edit(("p_on_chip_dbm = -7.9",
                                    "p_on_chip_w = 1e-4\np_on_chip = 2")), [
        "<string>:21: 'p_on_chip' is missing its unit suffix; expected "
        "'p_on_chip_dbm' or 'p_on_chip_w'"]),
    "pump_power_unsuffixed_first": (edit((
        "p_on_chip_dbm = -7.9", "p_on_chip = 2\np_on_chip_dbm = -7.9")), [
        "<string>:20: 'p_on_chip' is missing its unit suffix; expected "
        "'p_on_chip_dbm' or 'p_on_chip_w'"]),
    "pump_power_wrong_suffix": (edit(("p_on_chip_dbm = -7.9",
                                      "p_on_chip_mw = -7.9")), [
        "<string>:20: 'p_on_chip_mw' is missing its unit suffix; expected "
        "'p_on_chip_dbm' or 'p_on_chip_w'"]),
    # the key whose field gamma_e is, not gamma_hz less a suffix _e
    "mode_gamma_e_unsuffixed": (edit(("gamma_hz = 8.4e6",
                                      "gamma_hz = 8.4e6\ngamma_e = 1")), [
        "<string>:30: 'gamma_e' is missing its unit suffix; expected "
        "'gamma_e_hz'"]),
    "pump_power_neither": (edit(("p_on_chip_dbm = -7.9\n", "")), [
        "<string>: [pump] needs p_on_chip_dbm, p_on_chip_w, or n_c"]),
    "pump_missing_detuning": (edit(("detuning_hz = 4.32e9\n", "")), [
        "<string>: [pump] missing key 'detuning_hz'"]),
    "qubit_missing_key": (edit(("f_mu_hz = 4.32e9\n", "")), [
        "<string>: [qubit] missing key 'f_mu_hz'"]),
    "modes_missing_key": (edit(("gamma_hz = 8.4e6\n", "")), [
        "<string>: [[modes]] block 1 missing 'gamma_hz'"]),
    "device_record": (edit(("kappa_oe_hz = 0.99e9", "kappa_oe_hz = 3e9")), [
        "<string>: kappa_oe (3000000000.0) exceeds kappa_o (2100000000.0)"]),
    "pump_record": (edit(("p_on_chip_dbm = -7.9", "n_c = -1")), [
        "<string>: [pump] n_c must be finite and >= 0 (got -1.0)"]),
    "qubit_record": (edit(("c_q_f = 70e-15", "c_q_f = 0")), [
        "<string>: [qubit] c_q must be finite and > 0 (got 0.0)"]),
    "modes_record": (FULL + MODE.replace("gamma_hz = 8.4e6", "gamma_hz = -1"), [
        "<string>: [[modes]] block 2: gamma must be finite and > 0 (got -1.0)"]),
    "optical_and_mechanical": (edit(("kappa_o_hz = 2.1e9\n", ""),
                                    ("g_om_hz = 130e3\n", "")), [
        "<string>: [optical] needs kappa_o_hz or kappa_oi_hz",
        "<string>: [mechanical] missing key 'g_om_hz'"]),
    "pump_and_qubit": (edit(("detuning_hz = 4.32e9\n", "p_on_chip_w = 1e-4\n"),
                            ("c_q_f = 70e-15\n", "")), [
        "<string>: [pump] missing key 'detuning_hz'",
        "<string>: [pump] give p_on_chip_dbm or p_on_chip_w, not both",
        "<string>: [qubit] missing key 'c_q_f'"]),
    "every_section": (edit(("kappa_oe_hz = 0.99e9",
                            "kappa_oe_hz = 0.99e9\nkappa_oi_hz = 1.11e9"),
                           ("gamma_me_hz = 58.0\n", ""),
                           ("p_on_chip_dbm = -7.9\n", ""),
                           ("g_hz = 130e3\n", "")), [
        "<string>: [optical] give kappa_o_hz or kappa_oi_hz, not both",
        "<string>: [electromechanical] missing key 'gamma_me_hz'",
        "<string>: [pump] needs p_on_chip_dbm, p_on_chip_w, or n_c",
        "<string>: [[modes]] block 1 missing 'g_hz'"]),
    "non_finite_number": (edit(("f_o_hz = 194.9e12", "f_o_hz = nan"),
                               ("p_on_chip_dbm = -7.9", "p_on_chip_dbm = -inf"),
                               ("g_hz = 130e3", "g_hz = 130e3\nphi_rad = inf")), [
        "<string>:3: non-finite number 'nan' for 'f_o_hz'",
        "<string>:20: non-finite number '-inf' for 'p_on_chip_dbm'",
        "<string>:31: non-finite number 'inf' for 'phi_rad'"]),
    "every_record": (edit(("kappa_oe_hz = 0.99e9\nkappa_oi_hz = 1.12e9",
                           "kappa_o_hz = 2.11e9\nkappa_oe_hz = 5e9"),
                          ("p_on_chip_dbm = -7.9", "n_c = -1"),
                          ("c_q_f = 70e-15", "c_q_f = 0"), text=MEASURED), [
        "<string>: kappa_oe (5000000000.0) exceeds kappa_o (2110000000.0)",
        "<string>: [pump] n_c must be finite and >= 0 (got -1.0)",
        "<string>: [qubit] c_q must be finite and > 0 (got 0.0)"]),
    "overflowing_dbm": (edit(("p_on_chip_dbm = -7.9", "p_on_chip_dbm = 1e4")), [
        "<string>: [pump] p_on_chip must be finite and >= 0 (got inf)"]),
}


@pytest.mark.parametrize("text,violations", VIOLATIONS.values(), ids=VIOLATIONS)
def test_device_file_violations(text, violations):
    with pytest.raises(DeviceFileError) as err:
        parse_device_text(text)
    assert err.value.violations == violations


# sha256 prefixes of write_device(load_device(name))
WRITE_DIGESTS = {
    "table1_measured": "2e57e9cd242427b2",
    "table1_sim_adjusted": "f97b770f3f56fa6a",
    "table1_sim_initial": "74d339167afe45ef",
}


@pytest.mark.parametrize("name", sorted(WRITE_DIGESTS))
def test_write_device_bytes_of_bundled_devices(name, tmp_path):
    path = tmp_path / f"{name}.cfg"
    write_device(load_device(name), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == WRITE_DIGESTS[name]
    assert parse_device(path) == load_device(name)


def test_schema_keys_name_fields_of_their_record():
    for kind, keys in _SCHEMA.values():
        names = {f.name for f in fields(kind)}
        for key in keys:
            if key not in _ALTERNATIVES:
                assert _field(key) in names, key
    assert {name for name, _ in _ALTERNATIVES.values()} == {"kappa_o", "p_on_chip"}


WRITTEN_ALTERNATIVES = """\
[optical]
f_o_hz = 194900000000000
kappa_o_hz = 2110000000
kappa_oe_hz = 990000000
eta_oc = 0.28999999999999998

[mechanical]
f_m_hz = 4320000000
gamma_mi_hz = 8400000
g_om_hz = 130000

[electromechanical]
gamma_me_hz = 58
c_idt_f = 4.2000000000000002e-16
z0_ohm = 50

[pump]
detuning_hz = 4320000000
n_c = 15000

[qubit]
c_q_f = 7.0000000000000005e-14
f_mu_hz = 4320000000
kappa_mu_hz = 1200000

[[modes]]
f_hz = 4320000000
gamma_hz = 8400000
g_hz = 130000
phi_rad = 0
gamma_e_hz = 0

[[modes]]
f_hz = 4320000000
gamma_hz = 8400000
g_hz = 20000
phi_rad = 0.71681469282041377
gamma_e_hz = 0
"""


def test_write_device_bytes_of_alternative_keys(tmp_path):
    text = edit(("kappa_o_hz = 2.1e9", "kappa_oi_hz = 1.12e9"),
                ("p_on_chip_dbm = -7.9", "n_c = 1.5e4")) \
        + MODE.replace("g_hz = 130e3", "g_hz = 2e4\nphi_rad = 7")
    bundle = parse_device_text(text)
    path = tmp_path / "alt.cfg"
    write_device(bundle, path)
    assert path.read_text() == WRITTEN_ALTERNATIVES
    assert parse_device(path) == bundle


@pytest.mark.parametrize("phi", [-1e-20, -5e-324, 2 * math.pi])
def test_a_phase_that_wraps_to_two_pi_round_trips(phi, tmp_path):
    # -1e-20 % 2 pi rounds to 2 pi itself, which the wrap stores as 0
    mode = MechanicalMode(f=4e9, gamma=1e6, g=1e5, phi=phi)
    assert mode.phi == 0.0
    bundle = replace(load_device("table1_measured"), modes=(mode,))
    write_device(bundle, tmp_path / "phi.cfg")
    assert parse_device(tmp_path / "phi.cfg") == bundle


def test_device_file_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + MEASURED.encode())
    assert parse_device(path) == load_device("table1_measured")


def test_resolve_device_path_tier_order(tmp_path, monkeypatch):
    cwd, env = tmp_path / "cwd", tmp_path / "env"
    cwd.mkdir()
    env.mkdir()
    for path in (cwd / "dev.cfg", env / "dev.cfg", env / "table1_measured.cfg"):
        path.write_text(MINIMAL)
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("TRANSDUCERSIM_DEVICE_PATH", str(env))
    assert resolve_device_path("dev") == Path("dev.cfg")
    assert resolve_device_path("dev.cfg") == Path("dev.cfg")
    assert resolve_device_path("table1_measured") == env / "table1_measured.cfg"
    bundled = resolve_device_path("table1_sim_adjusted")
    assert bundled.name == "table1_sim_adjusted.cfg"
    assert bundled.parent.name == "devices" and bundled.is_file()
    monkeypatch.delenv("TRANSDUCERSIM_DEVICE_PATH")
    assert resolve_device_path("table1_measured") == \
        bundled.parent / "table1_measured.cfg"


# ----------------------------------------------------------------- trace CSV

def test_trace_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(30)
    x = np.sort(rng.uniform(4.2e9, 4.4e9, 1000))
    x += np.arange(1000) * 1e-3               # enforce strict monotonicity
    y = rng.standard_normal(1000) * 1e-7
    tr = Trace(x, y, "hz", "lin")
    path = tmp_path / "spec.csv"
    write_trace(tr, path)
    back = read_trace(path)
    assert np.array_equal(back.x, tr.x)
    assert np.array_equal(back.y, tr.y)
    assert back.x_unit == "hz" and back.y_unit == "lin"


def test_trace_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbfhz,lin\n1.0,0.5\n2.0,0.25\n")
    tr = read_trace(path)
    assert tr.x_unit == "hz"
    assert tr.y.tolist() == [0.5, 0.25]


def test_trace_rejects_descending_x(tmp_path):
    path = tmp_path / "bad.csv"
    for body, line in (("2.0,1.0\n1.0,1.0\n", 3),
                       # the first row not above its predecessor; blank
                       # lines count
                       ("1.0,1.0\n\n3.0,1.0\n  \n3.0,2.0\n1.0,1.0\n", 6)):
        path.write_text("hz,lin\n" + body)
        with pytest.raises(TraceError) as err:
            read_trace(path)
        assert str(err.value) == \
            f"{path}:{line}: x values must be strictly increasing"


def _rows_text(n, start=0):
    return "".join(f"{k}.5,{-k}e-3\n" for k in range(start, start + n))


def _random_columns(n):
    """Sorted finite x and finite y from random bit patterns."""
    bits = np.random.default_rng(31).integers(0, 2 ** 64, 4 * n, dtype=np.uint64)
    cells = bits.view(float)
    cells = cells[np.isfinite(cells)]
    return np.unique(cells[:n]).tolist(), cells[n:2 * n].tolist()


BLOCK = 8      # rows per block in the *_block_* and *_pieces cases
_RANDOM_COLUMNS = _random_columns(3 * BLOCK + 3)
# the bytes a trace body may hold and still go to np.loadtxt
PLAIN = b"0123456789eE.+-, \r\n"
# each byte before, inside and after the x field, and after the y field,
# of the last row
_BYTE_ROWS = {"before": b"%s3,4", "inside": b"3%s5,4", "after": b"3%s,4",
              "after_y": b"3,4%s"}
# (name, file text or bytes): read_trace must agree with the per-line
# reference on each, in the arrays it returns or in the exception it raises
TRACE_CORPUS = [
    ("plain", "hz,lin\n1,2\n2,3\n"),
    ("one_row", "s,v\n-0.0,5e-324\n"),
    ("blank_lines", "hz,lin\n\n1,2\n   \n2,3\n\n"),
    ("crlf", "hz,lin\r\n1,2\r\n2,3\r\n"),
    ("lone_cr", "hz,lin\r1,2\r2,3\r"),
    ("spaces", "hz , lin\n 1 , 2 \n2 ,3\n"),
    ("underscores", "hz,lin\n1_000,2\n2_000,3_0\n"),
    ("arabic_indic_digits", "hz,lin\n\u0661,\u0662\n\u0663.\u0665,4\n"),
    ("fullwidth_digits", "hz,lin\n\uff11,2\n\uff12,3\n"),
    ("nbsp", "hz,lin\n\xa01,2\u3000\n2,3\n"),
    ("form_feed", "hz,lin\n1,2\x0c2,3\n"),
    ("form_feed_in_row", "hz,lin\n1,\x0c2\n"),
    ("nel", "hz,lin\n1,2\x852,3\n"),
    ("line_separator", "hz,lin\n1,2\u20282,3\u20293,4\n"),
    ("unit_separator_in_row", "hz,lin\n1\x1f,2\n"),
    ("vt_and_fs", "hz,lin\n1,2\x0b2,3\x1c3,4\x1d4,5\x1e5,6\n"),
    ("semicolon", "hz,lin\n1,2\n2;3\n"),
    ("semicolon_and_comma", "hz,lin\n1,2;\n"),
    ("tab", "hz,lin\n1\t,2\n"),
    ("no_comma", "hz,lin\n1,2\n2 3\n"),
    ("two_commas", "hz,lin\n1,2,3\n"),
    ("commas_balance_across_lines", "hz,lin\n0,1\n1\n2,3,4\n"),
    ("trailing_comma", "hz,lin\n1,2\n2,\n"),
    ("leading_comma", "hz,lin\n,2\n"),
    ("nan", "hz,lin\n1,2\n2,nan\n"),
    ("inf", "hz,lin\ninf,2\n"),
    ("minus_inf", "hz,lin\n1,-Infinity\n"),
    ("overflow", "hz,lin\n1,1e400\n"),
    ("underflow", "hz,lin\n1,1e-400\n2,-4.9e-324\n"),
    ("hex_float", "hz,lin\n0x1p3,1\n"),
    ("nul", "hz,lin\n1\x00,2\n"),
    ("nan_payload", "hz,lin\n1,nan(1)\n"),
    ("bad_then_non_increasing", "hz,lin\n2,1\n1,1\nx,1\n"),
    ("equal_x", "hz,lin\n1,1\n1,2\n"),
    ("descending_after_blank", "hz,lin\n1,1\n\n0.5,2\n"),
    ("header_only", "hz,lin\n"),
    ("header_and_blanks", "hz,lin\n\n \n"),
    ("empty", ""),
    ("one_column_header", "hz\n1,2\n"),
    ("three_column_header", "hz,lin,x\n1,2\n"),
    ("empty_header_token", "hz,\n1,2\n"),
    ("full_block_plus_one", "hz,lin\n" + _rows_text(BLOCK + 1)),
    ("second_block_bad_number", "hz,lin\n" + _rows_text(BLOCK + 3) + "1e,0\n"),
    ("second_block_two_commas", "hz,lin\n" + _rows_text(BLOCK) + "1,2,3\n"),
    ("second_block_non_finite", "hz,lin\n" + _rows_text(BLOCK + 1) + "1e9,inf\n"),
    ("second_block_non_increasing",
     "hz,lin\n" + _rows_text(BLOCK + 2) + _rows_text(1, start=BLOCK)),
    ("random_doubles", "hz,lin\n" + "".join(
        f"{x:.17g},{y:.17g}\n" for x, y in zip(*_RANDOM_COLUMNS))),
    ("second_block_blank", "hz,lin\n" + _rows_text(BLOCK + 2) + "\n"
     + _rows_text(2, start=BLOCK + 2)),
    # pieces are cut just after a newline: a CRLF, a lone CR or a line far
    # longer than the rest never splits a line between two pieces
    ("crlf_pieces", "hz,lin\r\n" + _rows_text(3 * BLOCK).replace("\n", "\r\n")),
    ("lone_cr_pieces", "hz,lin\r" + _rows_text(3 * BLOCK).replace("\n", "\r")),
    ("mixed_endings_pieces", "hz,lin\n" + "".join(
        f"{k}.5,{k}{end}" for k, end in zip(range(3 * BLOCK),
                                           ["\n", "\r\n", "\r", "\x0c"] * BLOCK))),
    ("uneven_lines", "hz,lin\n" + "1.0000000000000000000000000000000000000001,"
     + "0" * 400 + "\n" + _rows_text(3 * BLOCK, start=2)),
    ("no_final_newline", "hz,lin\n" + _rows_text(2 * BLOCK + 1) + "99.5,1"),
    ("bom_crlf", "\ufeffhz,lin\r\n1,2\r\n2,3\r\n"),
    ("header_form_feed", "hz,lin\x0c\n1,2\n2,3\n"),
    ("header_nel", "hz,\x85lin\n1,2\n"),
    ("header_line_separator", "hz,lin\u2028\n1,2\n2,3\n"),
    ("one_column_body", "hz,lin\n1\n2\n"),
    ("three_column_body", "hz,lin\n1,2,3\n2,3,4\n"),
    ("blank_body", "hz,lin\n\n\r\n\n"),
    ("spaces_only_line", "hz,lin\n1,2\n  \n2,3\n"),
    # the byte outside PLAIN lies past the reader's first 1 MB block
    ("late_form_feed", "hz,lin\n" + _rows_text(70_000) + "1e9,1\x0c"),
    *((f"byte_{b:02x}_{where}",
       b"hz,lin\n1,2\n" + row % bytes([b]) + b"\n")
      for b in range(256) for where, row in _BYTE_ROWS.items()),
]


def _routed_to_rows(data):
    """Whether read_trace must take the per-line path on a valid file: its
    first line splits, its body holds a byte outside PLAIN, or np.loadtxt
    rejects it, which among valid files only a line of spaces makes it do."""
    head, newline, body = data.partition(b"\n")
    return (len((head + newline).decode("utf-8-sig").splitlines()) != 1
            or bool(body.translate(None, PLAIN))
            or any(line and not line.strip(" ")
                   for line in body.decode().splitlines()))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, text", TRACE_CORPUS,
                         ids=[name for name, _ in TRACE_CORPUS])
def test_read_trace_matches_per_line_reference(tmp_path, monkeypatch, name,
                                               text):
    path = tmp_path / f"{name}.csv"
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    path.write_bytes(data)
    try:
        expected = reference_read_trace(path)
    except (TraceError, UnicodeDecodeError) as err:
        if isinstance(err, UnicodeDecodeError):
            err = TransducerError(f"{path}: not a text file ({err})")
        with pytest.raises(TransducerError) as got:
            read_trace(path)
        assert (type(got.value), str(got.value)) == (type(err), str(err))
        return
    per_line, calls = deviceio._rows, []

    def counted(*args):
        calls.append(args)
        return per_line(*args)
    monkeypatch.setattr(deviceio, "_rows", counted)
    got = read_trace(path)
    assert got.x.tobytes() == expected.x.tobytes()
    assert got.y.tobytes() == expected.y.tobytes()
    assert (got.x_unit, got.y_unit) == (expected.x_unit, expected.y_unit)
    assert bool(calls) == _routed_to_rows(data)


@pytest.mark.parametrize("action", ["error", "always"])
def test_read_trace_of_a_blank_body_warns_nothing(tmp_path, action):
    # np.loadtxt warns on a body with no data; the reader falls back
    # whatever the caller's warning filter is, and no warning escapes
    path = tmp_path / "blank.csv"
    path.write_text("hz,lin\n\n\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(TraceError) as err:
            read_trace(path)
    assert str(err.value) == f"{path}: no data rows"
    assert caught == []


def test_read_trace_holds_no_whole_line_list(tmp_path):
    # the reader holds np.loadtxt's table and the columns copied from it:
    # less than half of the list of all lines, which it never builds
    x = np.linspace(4.0e9, 4.6e9, 50_000)
    path = tmp_path / "long.csv"
    write_trace(Trace(x, np.sin(x / 1e6)), path)
    lines = path.read_text().splitlines()
    whole = sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
    del lines
    tracemalloc.start()
    try:
        got = read_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.x.tobytes() == x.tobytes()
    assert peak < 0.5 * whole


@pytest.mark.parametrize("header", ["hz,lin", "hz"])
def test_read_trace_names_a_late_decode_error_as_the_whole_file_read(
        tmp_path, header):
    # the byte that is not UTF-8 lies rows after the start, behind a good
    # or a bad header: the error is the whole file's, at its offset
    data = (header + "\n" + _rows_text(5 * BLOCK)).encode() + b"1,\xff\n"
    path = tmp_path / "late.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as codec:
        data.decode("utf-8-sig")
    with pytest.raises(TransducerError) as err:
        read_trace(path)
    assert str(err.value) == f"{path}: not a text file ({codec.value})"


def test_strictly_increasing_checks_agree_with_the_difference(tmp_path,
                                                             measured):
    # neighbours that are equal, infinite, nan, or a step whose difference
    # overflows: axis() accepts exactly the finite arrays whose diff(x) is
    # > 0, and the Trace, the spectrum grids, the Rabi time grid and the
    # trace reader reject the others with its error, before any arithmetic
    # could warn (an aliasing SamplingError on [0, inf] before)
    cases = {"equal": [1.0, 1.0], "huge_step": [-1e308, 1e308],
             "inf": [0.0, math.inf], "inf_inf": [math.inf, math.inf],
             "nan": [0.0, math.nan], "minus_inf": [-math.inf, 0.0],
             "subnormal": [0.0, 5e-324], "falls": [1.0, 0.0, 2.0]}
    dev, modes = measured.device, measured.mechanical_modes
    rule = "must be a nonempty 1-d array of finite, strictly increasing values"
    for name, values in cases.items():
        x = np.array(values)
        path = tmp_path / f"{name}.csv"
        path.write_text("hz,lin\n" + "".join(f"{v!r},0\n" for v in values))
        with np.errstate(over="ignore", invalid="ignore"):
            ok = bool(np.isfinite(x).all() and np.all(np.diff(x) > 0))
        if not ok:
            for axis_name, call in (
                    ("x", lambda: axis(x, "x")),
                    ("x", lambda: Trace(x, np.zeros(x.size))),
                    ("grid", lambda: thermal_spectrum(dev, modes, 1e4, 1.0, x)),
                    ("grid", lambda: driven_spectrum(dev, modes, 1e4, 1.0,
                                                     dev.f_m, 1e-9, 50e3, x)),
                    ("grid", lambda: s_oe_spectrum(dev, modes, measured.pump,
                                                   x)),
                    ("t_grid", lambda: rabi_swap_sim(dev, measured.qubit, x))):
                with pytest.raises(TraceError) as err:
                    call()
                assert str(err.value) == f"{axis_name} {rule}", name
            with pytest.raises(TraceError):
                read_trace(path)
            continue
        assert axis(x, "x").tobytes() == x.tobytes(), name
        assert Trace(x, np.zeros(x.size)).x.tobytes() == x.tobytes(), name
        assert read_trace(path).x.tobytes() == x.tobytes(), name
        if x[0] < 0:
            with pytest.raises(ParameterError) as err:
                rabi_swap_sim(dev, measured.qubit, x)
            assert str(err.value) == "t_grid must hold at least two times, " \
                "all >= 0", name
        else:
            rabi_swap_sim(dev, measured.qubit, x)


def test_trace_rejects_nan(tmp_path):
    path = tmp_path / "bad.csv"
    for value in ("nan", "inf", "-inf"):
        path.write_text(f"hz,lin\n1.0,1.0\n2.0,{value}\n")
        with pytest.raises(TraceError) as err:
            read_trace(path)
        assert f"{path}:3: non-finite value" in str(err.value)


def test_trace_mixed_delimiters_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("hz,lin\n1.0,1.0\n2.0;2.0\n")
    with pytest.raises(TraceError) as err:
        read_trace(path)
    assert ":3" in str(err.value)


@pytest.mark.parametrize("first, body", [
    ("4200000000.0,1.0103998400639744", "4200100000.0,1.02\n"),
    ("1,2", "2,3\n"),
    ("hz,1", "1,2\n"),
    (" 1e3 , lin", "1,2\n"),
    ("nan,inf", "1,2\n"),
    ("1_000,lin", "1,2\n"),
    ("1,2", "2,3\t\n"),        # a body that goes to the per-line path
], ids=["two_numbers", "small_numbers", "numeric_y_unit", "numeric_x_unit",
        "non_finite_numbers", "underscore_number", "per_line_body"])
def test_read_trace_rejects_a_first_line_holding_a_number(tmp_path, first,
                                                          body):
    # a header's fields are units: a number in either one makes the first
    # line data, and a trace needs its header
    path = tmp_path / "headerless.csv"
    path.write_text(first + "\n" + body)
    with pytest.raises(TraceError) as err:
        read_trace(path)
    assert str(err.value) == \
        f"{path}:1: header must be 'x_unit,y_unit' (got {first!r})"


def test_read_points(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("n_c,gamma_hz\n1e4,8.3e6\n2e4,8.2e6\n")
    pts = read_points(path)
    assert pts.shape == (2, 2)
    assert pts[1, 1] == 8.2e6


def test_read_points_without_header_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_bytes(b"\xef\xbb\xbf1e4,8.3e6\n2e4,8.2e6\n")
    assert read_points(path).tolist() == [[1e4, 8.3e6], [2e4, 8.2e6]]


@pytest.mark.parametrize("text", [
    "n_c,gamma_hz\n3e4,8.1e6\n1e4,8.3e6\n1e4,8.2e6\n",
    "3e4,8.1e6\n1e4,8.3e6\n1e4,8.2e6\n",
    "\ufeff3e4,8.1e6\r\n1e4,8.3e6\r\n1e4,8.2e6\r\n",
    "\ufeffn_c , gamma_hz\n\n3e4,8.1e6\n  \n1e4,8.3e6\n1e4,8.2e6\n\n",
    "\n3e4,8.1e6\n1e4,8.3e6\n1e4,8.2e6",
], ids=["header", "no_header", "bom_crlf_no_header", "bom_header_blanks",
        "leading_blank"])
def test_read_points_takes_an_optional_header_and_any_x_order(tmp_path, text):
    path = tmp_path / "pts.csv"
    path.write_bytes(text.encode())
    assert read_points(path).tolist() == \
        [[3e4, 8.1e6], [1e4, 8.3e6], [1e4, 8.2e6]]


@pytest.mark.parametrize("text, message", [
    ("1000,8.39e6x\n2000,8.38e6\n3000,8.37e6\n",
     ":1: cannot parse numbers in '1000,8.39e6x'"),
    ("n_c,\n1000,8.39e6\n", ":1: cannot parse numbers in 'n_c,'"),
    ("n_c,gamma_hz\n1000,\t8.39e6\n",
     ":2: expected two comma-separated values (got '1000,\\t8.39e6')"),
    ("1000,\t8.39e6\n", ":1: expected two comma-separated values "
                         "(got '1000,\\t8.39e6')"),
    ("n_c,gamma_hz\n1000;8.39e6\n",
     ":2: expected two comma-separated values (got '1000;8.39e6')"),
    ("n_c;gamma_hz\n1000,8.39e6\n",
     ":1: expected two comma-separated values (got 'n_c;gamma_hz')"),
    ("n_c,gamma_hz,x\n1000,8.39e6\n",
     ":1: expected two comma-separated values (got 'n_c,gamma_hz,x')"),
    ("\nn_c,gamma_hz\n1000,8.39e6\n",
     ":2: cannot parse numbers in 'n_c,gamma_hz'"),
    ("n_c,gamma_hz\n\n1000,8.39e6\n\n2000,x\n",
     ":5: cannot parse numbers in '2000,x'"),
    ("n_c,gamma_hz\n\n \n", ": no data rows"),
    ("", ": no data rows"),
], ids=["malformed_first_row", "empty_header_field", "tab", "tab_no_header",
        "semicolon", "semicolon_header", "three_column_header",
        "header_after_blank", "blank_lines_counted", "header_only", "empty"])
def test_read_points_names_the_line_that_breaks_the_format(tmp_path, text,
                                                           message):
    path = tmp_path / "pts.csv"
    path.write_text(text)
    with pytest.raises(TraceError) as err:
        read_points(path)
    assert str(err.value) == f"{path}{message}"


@pytest.mark.parametrize("row", ["nan,8.2e6", "2e4,inf", "-inf,8.2e6"])
def test_read_points_rejects_non_finite(tmp_path, row):
    path = tmp_path / "pts.csv"
    path.write_text(f"n_c,gamma_hz\n1e4,8.3e6\n{row}\n3e4,8.1e6\n")
    with pytest.raises(TraceError) as err:
        read_points(path)
    assert str(err.value) == f"{path}:3: non-finite value"


def test_trace_validates_on_construction():
    with pytest.raises(TraceError):
        Trace(np.array([1.0, 1.0]), np.array([0.0, 0.0]))   # not increasing
    with pytest.raises(TraceError):
        Trace(np.array([1.0, 2.0]), np.array([0.0]))        # length mismatch
    with pytest.raises(TraceError):
        Trace(np.array([1.0, 2.0]), np.array([0.0, np.nan]))
    tr = Trace(np.array([1.0, 2.0, 4.0]), np.array([0.0, 1.0, 0.5]))
    assert len(tr.restrict(1.5, 4.5)) == 2
    with pytest.raises(TraceError) as err:
        tr.restrict(2.5, 3.5)
    assert str(err.value) == "no samples in [2.5, 3.5]"
    assert Trace(np.array([3.0]), np.array([1.0])).cell_widths().tolist() \
        == [1.0]
    with pytest.raises(ValueError):
        tr.y[0] = 5.0                                       # read-only view


# -------------------------------------------------------------------- sweeps

def test_sweep_cooperativity_linear_in_photons(measured):
    spec = SweepSpec.from_range("pump.n_c", 1e3, 1e4, 10, "linear", ["c_om"])
    rows = run_sweep(spec, measured)
    n = np.array([r["pump.n_c"] for r in rows])
    c = np.array([r["c_om"] for r in rows])
    assert np.allclose(c, c[0] * n / n[0], rtol=1e-12)


def test_sweep_coherent_peak_area_linear_in_drive(measured):
    values = tuple(np.linspace(1e-7, 1e-6, 10))
    spec = SweepSpec(targets=(("drive.p_mu", values),),
                     quantities=("coherent_peak_area",))
    rows = run_sweep(spec, measured)
    areas = np.array([r["coherent_peak_area"] for r in rows])
    assert np.allclose(areas, areas[0] * np.array(values) / values[0],
                       rtol=1e-12)


def test_sweep_zipped_idt_scaling(measured):
    # gamma_me scales linearly with the IDT capacitance (model input);
    # c_q compensates to hold Z_q fixed, so g_em grows as sqrt(c_idt)
    base = measured.device
    qubit = measured.qubit
    c_tot = base.c_idt + qubit.c_q
    c_idt = tuple(base.c_idt * s for s in (1.0, 2.0, 4.0, 8.0))
    gamma_me = tuple(base.gamma_me * s for s in (1.0, 2.0, 4.0, 8.0))
    c_q = tuple(c_tot - c for c in c_idt)
    spec = SweepSpec(targets=(("device.c_idt", c_idt),
                              ("device.gamma_me", gamma_me),
                              ("qubit.c_q", c_q)),
                     quantities=("g_em", "z_q"))
    rows = run_sweep(spec, measured)
    z_q = np.array([r["z_q"] for r in rows])
    g_em = np.array([r["g_em"] for r in rows])
    assert np.allclose(z_q, z_q[0], rtol=1e-12)
    expected = g_em[0] * np.sqrt(np.array(c_idt) / c_idt[0])
    assert np.allclose(g_em, expected, rtol=1e-12)


def test_sweep_unknown_quantity():
    with pytest.raises(ParameterError) as err:
        SweepSpec.from_range("pump.n_c", 1.0, 2.0, 3, "linear", ["bogus"])
    assert "bogus" in str(err.value)


def test_sweep_unknown_path(measured):
    spec = SweepSpec(targets=(("device.nonsense", (1.0,)),),
                     quantities=("c_om",))
    with pytest.raises(ParameterError):
        run_sweep(spec, measured)


def test_sweep_range_validation():
    with pytest.raises(ParameterError):
        SweepSpec.from_range("pump.n_c", 5.0, 1.0, 4, "linear", ["c_om"])
    with pytest.raises(ParameterError):
        SweepSpec.from_range("pump.n_c", 1.0, 2.0, 0, "linear", ["c_om"])
    single = SweepSpec.from_range("pump.n_c", 1.0, 2.0, 1, "linear", ["c_om"])
    assert single.n_rows == 1
    for start, stop, scale in ((1e3, math.inf, "log"), (math.nan, 1.0, "linear"),
                               (-1e308, 1e308, "linear")):
        with pytest.raises(ParameterError):
            SweepSpec.from_range("pump.n_c", start, stop, 3, scale, ["c_om"])


@pytest.mark.parametrize("targets, quantities, message", [
    ((), ("n_c",), "sweep needs at least one parameter path"),
    ((("pump.n_c", (1.0, 2.0)), ("temperature", (4.0,))), ("n_c",),
     "zipped sweep value lists must share a length"),
    ((("pump.n_c", ()),), ("n_c",), "sweep needs at least one value"),
    ((("pump.n_c", (1.0,)),), (), "sweep needs at least one quantity"),
], ids=["no_targets", "unequal_lists", "empty_list", "no_quantities"])
def test_sweep_spec_names_what_it_lacks(targets, quantities, message):
    with pytest.raises(ParameterError) as err:
        SweepSpec(targets, quantities)
    assert str(err.value) == message


@pytest.mark.parametrize("path, message", [
    ("pump.nonsense", "unknown pump field 'nonsense'"),
    ("qubit.nonsense", "unknown qubit field 'nonsense'"),
    ("optical.f_o", "unknown parameter path 'optical.f_o'; use "
     "device.<field>, pump.<field>, qubit.<field>, drive.p_mu, or "
     "temperature"),
], ids=["pump_field", "qubit_field", "path_head"])
def test_override_names_an_unknown_path(measured, path, message):
    with pytest.raises(ParameterError) as err:
        override(measured, {path: 1.0}, {})
    assert str(err.value) == message


def test_grid_scale_must_be_linear_or_log():
    with pytest.raises(ParameterError) as err:
        grid(1.0, 2.0, 3, ("start", "stop", "count"), scale="x")
    assert str(err.value) == "scale must be 'linear' or 'log' (got 'x')"


N_C = tuple(np.geomspace(1e2, 1e5, 40).tolist())
C_Q = tuple(np.linspace(1e-14, 2e-13, 40).tolist())
ORACLE_SWEEPS = {
    "n_c": (("pump.n_c", N_C),),
    "p_on_chip": (("pump.p_on_chip", tuple(np.geomspace(1e-7, 1e-4, 40).tolist())),),
    "detuning_through_0": (("pump.detuning",
                            tuple(np.linspace(-2e10, 2e10, 41).tolist())),),
    "g_om": (("device.g_om", tuple(np.linspace(1e4, 2e5, 40).tolist())),),
    "kappa_oe": (("device.kappa_oe", tuple(np.linspace(1e8, 2e9, 40).tolist())),),
    "c_q": (("qubit.c_q", C_Q),),
    "zipped_n_c_c_q": (("pump.n_c", N_C), ("qubit.c_q", C_Q)),
    "p_mu": (("drive.p_mu", tuple(np.geomspace(1e-9, 1e-5, 40).tolist())),),
    "temperature": (("temperature", tuple(np.geomspace(0.01, 300, 40).tolist())),),
}


@pytest.mark.parametrize("targets", ORACLE_SWEEPS.values(), ids=ORACLE_SWEEPS)
def test_sweep_matches_per_row_reference(measured, targets):
    spec = SweepSpec(targets, tuple(QUANTITIES))
    got = run_sweep(spec, measured, temperature=4.0, drive_p_mu=1e-7)
    want = reference_sweep(spec, measured, temperature=4.0, drive_p_mu=1e-7)
    assert [list(row) for row in got] == [list(row) for row in want]
    for g, w in zip(got, want):
        for key, value in w.items():
            assert abs(g[key] - value) <= 1e-15 * abs(value), (key, g[key], value)


TABLE_SWEEPS = {
    "log_range": (("pump.n_c", tuple(np.geomspace(1e3, 1e5, 25).tolist())),),
    "zipped": (("pump.n_c", N_C),
               ("device.g_om", tuple(np.linspace(1e4, 2e5, 40).tolist()))),
    "blue_red_interleaved": (("pump.detuning",
                              (-4.32e9, 4.32e9, -1e9, 0.0, -2e9, 3e9)),
                             ("pump.n_c", (1e3, 2e3, 3e3, 4e3, 5e3, 6e3))),
    "one_row": (("pump.n_c", (2.5e4,)),),
}


@pytest.mark.parametrize("targets", TABLE_SWEEPS.values(), ids=TABLE_SWEEPS)
def test_sweep_table_columns_are_the_rows(measured, targets):
    # c_om is asked for twice: the table, like a row, holds it once
    quantities = ("n_c", "gamma_om", "gamma_tot", "c_om", "eta_tot", "c_om")
    spec = SweepSpec(targets, quantities)
    table = sweep_table(spec, measured)
    assert list(table) == [path for path, _ in targets] + list(quantities[:-1])
    for column in table.values():
        assert column.dtype == np.float64 and column.shape == (spec.n_rows,)
    by_column = [list(zip(table, row))
                 for row in zip(*(col.tolist() for col in table.values()))]
    rows = run_sweep(spec, measured)
    assert by_column == [list(row.items()) for row in rows]
    assert by_column == [list(row.items())
                         for row in reference_sweep(spec, measured)]
    for i, row in enumerate(rows):
        for name, value in row.items():
            assert type(value) is float
            assert np.float64(value).tobytes() == table[name][i].tobytes()


# log10 spans drawn per path, and values where a scalar once took another
# path: k_B T rounds to 0 (n_th -> 0), (2 pi detuning)^2 overflows (n_c ->
# 0), and a g_em whose square by C pow is not the correctly rounded g_em*g_em
ONE_PATH_DRAWS = {
    "temperature": ((-3.0, 4.0), (1e-320,)),
    "pump.n_c": ((-3.0, 300.0), ()),
    "pump.detuning": ((0.0, 300.0), (1e200, -1e200)),
    "device.f_m": ((0.0, 300.0), ()),
    "device.g_om": ((-3.0, 200.0), ()),
    "qubit.c_q": ((-300.0, 300.0), (1.876942000562501e-15,)),
}


@pytest.mark.parametrize("path", ONE_PATH_DRAWS)
def test_scalar_rows_take_the_bits_of_the_sweep_column(measured, path):
    # one numeric path: each row's scalar evaluate is a Python float with
    # the column's bits, and a row that raises makes the column raise one
    # of the rows' messages
    (lo, hi), limits = ONE_PATH_DRAWS[path]
    rng = np.random.default_rng(sum(map(ord, path)))
    values = 10.0 ** rng.uniform(lo, hi, 120)
    if path == "pump.detuning":
        values *= rng.choice((-1.0, 1.0), values.size)
    values = np.concatenate((values, limits))
    env = {"temperature": 4.0, "drive.p_mu": 1e-7}
    groups = [override(measured, {path: v}, env) for v in values.tolist()]
    for name in QUANTITIES:
        scalars = []
        for group in groups:
            try:
                scalars.append(evaluate((name,), *group)[name])
            except TransducerError as err:
                scalars.append(err)
        ok = np.array([not isinstance(v, TransducerError) for v in scalars])
        assert all(type(v) is float for v in np.array(scalars, object)[ok])
        if ok.any():
            spec = SweepSpec(((path, tuple(values[ok].tolist())),), (name,))
            column = sweep_table(spec, measured, temperature=4.0,
                                 drive_p_mu=1e-7)[name]
            want = np.array([v for v, k in zip(scalars, ok) if k])
            assert column.tobytes() == want.tobytes(), name
        if not ok.all():
            spec = SweepSpec(((path, tuple(values.tolist())),), (name,))
            with pytest.raises(TransducerError) as err:
                sweep_table(spec, measured, temperature=4.0, drive_p_mu=1e-7)
            errors = {(type(v), str(v)) for v, k in zip(scalars, ok) if not k}
            assert (type(err.value), str(err.value)) in errors, name


@pytest.mark.parametrize("targets", TABLE_SWEEPS.values(), ids=TABLE_SWEEPS)
def test_run_sweep_rows_are_independent(measured, targets):
    spec = SweepSpec(targets, ("n_c", "eta_tot"))
    rows = run_sweep(spec, measured)
    want = [dict(row) for row in rows]
    rows[-1]["n_c"] = -1.0
    rows[-1]["extra"] = 0.0
    del rows[0]["eta_tot"]
    assert rows[1:-1] == want[1:-1]
    assert run_sweep(spec, measured) == want


BAD_MIDDLE_ROW = {
    "unstable": ((("pump.n_c", (1e3, 1e9, 1e4)),), ("c_om", "gamma_tot", "eta_tot")),
    "negative_n_c": ((("pump.n_c", (1e3, -5.0, 1e4)),), ("c_om",)),
    "kappa_oe_over_kappa_o": ((("device.kappa_oe", (1e8, 1e12, 1e8)),), ("eta_o",)),
    "unstable_blue_among_red": ((("pump.detuning", (-4.32e9, 1e6, -4.32e9)),
                                 ("pump.n_c", (1e4, 1e6, 1e4))),
                                ("n_c", "gamma_tot")),
    "nan_temperature": ((("temperature", (4.0, math.nan, 300.0)),), ("n_th",)),
    "inf_temperature": ((("temperature", (4.0, math.inf, 300.0)),), ("n_th",)),
    "inf_p_mu": ((("drive.p_mu", (1e-7, math.inf, 1e-7)),), ("coherent_phonons",)),
}


@pytest.mark.parametrize("targets,quantities", BAD_MIDDLE_ROW.values(),
                         ids=BAD_MIDDLE_ROW)
def test_sweep_bad_middle_row_fails_like_reference(measured, targets, quantities):
    spec = SweepSpec(targets, quantities)
    with pytest.raises(TransducerError) as want:
        reference_sweep(spec, measured, drive_p_mu=1e-7)
    with pytest.raises(TransducerError) as got:
        run_sweep(spec, measured, drive_p_mu=1e-7)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_sweep_temperature_column_below_expm1_overflow(measured):
    spec = SweepSpec((("temperature", (1e-6, 4.0, 300.0)),), ("n_th",))
    rows = run_sweep(spec, measured)
    assert [r["n_th"] for r in rows] == [
        0.0, thermal_occupation(measured.device.f_m, 4.0),
        thermal_occupation(measured.device.f_m, 300.0)]


def test_sweep_missing_section_is_named(measured):
    bare = replace(measured, pump=None, qubit=None)
    for path, quantity, section in (("pump.detuning", "eta_o", "[pump]"),
                                    ("device.g_om", "eta_tot", "[pump]"),
                                    ("qubit.c_q", "eta_o", "[qubit]"),
                                    ("device.g_om", "g_em", "[qubit]")):
        with pytest.raises(ParameterError, match=re.escape(section)):
            run_sweep(SweepSpec(((path, (1.0,)),), (quantity,)), bare)


def test_override_drive_replaces_both_file_values(measured):
    # a file pump with both values; one given value clears the other, and
    # two given values are both kept, whatever the order of the paths
    file_pump = replace(measured.pump, n_c=6170.0)
    bundle = replace(measured, pump=file_pump)
    for path, kept, cleared in (("pump.n_c", "n_c", "p_on_chip"),
                                ("pump.p_on_chip", "p_on_chip", "n_c")):
        pump = override(bundle, {path: 2.0}, {})[0].pump
        assert (getattr(pump, kept), getattr(pump, cleared)) == (2.0, None)
    both = [override(bundle, dict(items), {})[0].pump for items in (
        [("pump.n_c", 12340.0), ("pump.p_on_chip", 2e-4)],
        [("pump.p_on_chip", 2e-4), ("pump.n_c", 12340.0)])]
    assert both[0] == both[1] == replace(file_pump, n_c=12340.0,
                                         p_on_chip=2e-4)


def test_override_sign_and_the_pump_without_a_section(measured):
    red = override(measured, {}, {}, sign="red")[0].pump
    assert red.detuning == -measured.pump.detuning
    assert red.p_on_chip == measured.pump.p_on_chip
    assert override(replace(measured, pump=red), {}, {},
                    sign="blue")[0].pump.detuning == measured.pump.detuning
    bare = replace(measured, pump=None)
    pump = override(bare, {"pump.n_c": 1e3}, {}, sign="red")[0].pump
    assert (pump.detuning, pump.n_c, pump.p_on_chip) == \
        (-measured.device.f_m, 1e3, None)
    assert override(bare, {}, {})[0] == bare
    with pytest.raises(ParameterError, match=re.escape("[pump]")):
        override(bare, {}, {}, sign="blue")
    with pytest.raises(ParameterError, match="sign must be"):
        override(measured, {}, {}, sign="Blue")


def test_write_table(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ["a", "b"], [[1.0, 2.0], [3.0, 4.5]])
    assert path.read_bytes() == b"a,b\n1,2\n3,4.5\n"
    write_table(path, ["a"], [])
    assert path.read_bytes() == b"a\n"


@pytest.mark.parametrize("value", [-0.0, 5e-324, 1e308, 0.1, 3.0])
def test_write_table_cell_is_17g(tmp_path, value):
    path = tmp_path / "cell.csv"
    write_table(path, ["v"], np.array([[value]]))
    assert path.read_text().splitlines()[1] == f"{value:.17g}"


@pytest.mark.parametrize("n_rows, n_cols", [
    (2 * 32 + 5, 3),    # a row count off the block size of 96 // 3 rows
    (32, 3), (1, 3), (0, 3), (200, 1), (3, 500)])
def test_write_table_bytes_match_per_cell_format(tmp_path, monkeypatch,
                                                 n_rows, n_cols):
    monkeypatch.setattr(deviceio, "_WRITE_CELLS", 96)
    # random bit patterns: every exponent, subnormals, nan payloads
    bits = np.random.default_rng(n_rows + n_cols).integers(
        0, 2 ** 64, n_rows * n_cols, dtype=np.uint64)
    cells = bits.view(float)
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1]
    cells[:len(special)] = special[:cells.size]
    table = cells.reshape(n_rows, n_cols)
    header = [f"c{k}" for k in range(n_cols)]
    path = tmp_path / "table.csv"
    write_table(path, header, table)
    expected = ",".join(header) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in table.tolist())
    assert path.read_bytes() == expected.encode()


def _assert_percent_table(path, header, table):
    """path holds the bytes of write_table by % alone: the header line,
    then one "%.17g" per cell. A mismatch names its first line: a diff of
    megabytes would take pytest minutes to build."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    want = (",".join(header) + "\n"
            + row * len(table) % tuple(table.ravel().tolist())).encode()
    got = path.read_bytes()
    if got != want:
        first = next((pair for pair in zip(got.splitlines(), want.splitlines())
                      if pair[0] != pair[1]), "one is a prefix of the other")
        pytest.fail(f"first line that differs, written and by %: {first}")


def test_write_table_matches_percent_on_random_bit_patterns(tmp_path):
    # 3e5 cells in blocks of the default size: every exponent, subnormals,
    # infinities and nans, and the cells the formatter hands back to %
    bits = np.random.default_rng(25).integers(0, 2 ** 64, 300_000,
                                              dtype=np.uint64)
    table = bits.view(float).reshape(-1, 3)
    path = tmp_path / "table.csv"
    write_table(path, ["a", "b", "c"], table)
    _assert_percent_table(path, ["a", "b", "c"], table)


def _around(values, ulps):
    """values and their `ulps` nearest doubles on each side, of both signs."""
    cells, up, down = [values], values, values
    for _ in range(ulps):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
        cells += [up, down]
    return np.concatenate([*cells, -np.concatenate(cells)])


def _ties(rng):
    """Doubles halfway between two 17-digit decimals, (D + 1/2) / 10**m =
    j / 2**(m + 1) with j = (2D + 1) / 5**m odd and below 2**53, and short
    mantissas m * 2**e."""
    ties = []
    for m in range(2, 23):
        lo = -(-2 * 10 ** 16 // 5 ** m)
        hi = min(2 * 10 ** 17 // 5 ** m, 2 ** 53)
        j = rng.integers(lo // 2, hi // 2, 64) * 2 + 1
        ties.append(j * 2.0 ** -(m + 1))
    short = rng.integers(1, 2 ** 12, 3000) * 2.0 ** rng.integers(-90, 90, 3000)
    return np.concatenate([*ties, short, -short])


WRITE_FAMILIES = {
    "powers_of_ten": lambda rng: _around(
        np.array([float(f"1e{k}") for k in range(-307, 309)]), 4),
    # (10**17 - 1/2) * 10**(k - 16): where the 17 digits carry into an 18th
    "carry_boundaries": lambda rng: _around(np.array(
        [float(Fraction(2 * 10 ** 17 - 1, 2) * Fraction(10) ** (k - 16))
         for k in range(-308, 308)]), 4),
    "ties": _ties,
    "subnormals_and_specials": lambda rng: np.concatenate([
        [0.0, -0.0, math.inf, -math.inf, math.nan, 1.7976931348623157e308,
         1.7976931348623155e308],
        _around(np.array([5e-324, 2.2250738585072014e-308,
                          2.225073858507201e-308]), 3),
        rng.integers(1, 2 ** 52, 500, dtype=np.uint64).view(float)]),
}


@pytest.mark.parametrize("family", WRITE_FAMILIES)
def test_write_table_families_match_per_cell_format(tmp_path, monkeypatch,
                                                    family):
    # blocks of 96 cells, so cells printed by % fall on block edges
    monkeypatch.setattr(deviceio, "_WRITE_CELLS", 96)
    cells = WRITE_FAMILIES[family](np.random.default_rng(7))
    table = np.append(cells, cells[:cells.size % 2]).reshape(-1, 2)
    path = tmp_path / "table.csv"
    write_table(path, ["a", "b"], table)
    _assert_percent_table(path, ["a", "b"], table)


@pytest.mark.parametrize("n_rows", [0, 1, 16, 2 * 16 + 5])
@pytest.mark.parametrize("layout", ["one_d", "group", "eye"])
def test_columns_write_the_rows_of_their_table(tmp_path, monkeypatch, layout,
                                               n_rows):
    # 96 cells a block over 6 columns: 16 rows a block, and 37 rows end in
    # a part block; random bit patterns, so some cells are printed by %
    monkeypatch.setattr(deviceio, "_WRITE_CELLS", 96)
    bits = np.random.default_rng(n_rows).integers(0, 2 ** 64, (n_rows, 6),
                                                   dtype=np.uint64)
    table = bits.view(float)
    header = [f"c{k}" for k in range(6)]
    path = tmp_path / "columns.csv"
    if layout == "eye":     # segments are rows; the file holds them as columns
        header = ["t_s"] + [f"seg_{k:03d}" for k in range(5)]
        eye = EyeDiagram(table[:, 0].copy(), table[:, 1:].T.copy(), 0.0, 1.0)
        write_eye(eye, path)
        columns = [eye.t, eye.segments.T]
    else:
        columns = ([c.copy() for c in table.T] if layout == "one_d" else
                   [table[:, 0].copy(), table[:, 1:4], table[:, 4:]])
        deviceio.write_columns(path, header, columns)
    _assert_percent_table(path, header, table)
    # the %-format path reads the same blocks
    out = io.StringIO()
    deviceio._write_rows(out, header, columns, "%.10g")
    row = ",".join(["%.10g"] * 6) + "\n"
    assert out.getvalue() == (",".join(header) + "\n"
                              + row * n_rows % tuple(table.ravel().tolist()))


@pytest.mark.parametrize("kind", ["trace", "table"])
def test_a_write_holds_blocks_not_a_copy_of_its_table(tmp_path, kind):
    # tracemalloc sees numpy's buffers: a write holds one block of rows
    # and its text, whatever the row count, where a copy of the whole
    # table adds 8 bytes a cell
    from transducersim import _g17  # noqa: F401  (its tables, built once)
    path = tmp_path / "written.csv"

    def peak(n_rows):
        x = np.linspace(1.0, 2.0, n_rows)
        table = np.sin(np.outer(x, np.arange(1.0, 7.0)))
        trace = Trace(x, table[:, 0])
        tracemalloc.start()
        try:
            if kind == "trace":
                write_trace(trace, path)
            else:
                write_table(path, list("abcdef"), table)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20_000), peak(200_000)
    assert large - small < 2 ** 16
    if kind == "table":
        assert large < 8 * 6 * 200_000


@pytest.mark.parametrize("rows, shape", [
    ([[1.0, 2.0, 3.0]], (1, 3)), (np.zeros((2, 2, 1)), (2, 2, 1)),
    ([1.0, 2.0], (2,)), (np.zeros((0, 3)), (0, 3))],
    ids=["three_columns", "three_d", "one_d", "no_rows_of_three"])
def test_write_table_rejects_another_shape_before_opening(tmp_path, rows,
                                                          shape):
    path = tmp_path / "table.csv"
    path.write_bytes(b"kept\n")
    with pytest.raises(ParameterError, match=re.escape(
            f"{path}: 2 header names but a table of shape {shape}, "
            "not (rows, 2)")):
        write_table(path, ["a", "b"], rows)
    with pytest.raises(ParameterError, match="at least one header name"):
        write_table(path, [], [[]])
    with pytest.raises(ParameterError, match="rows is not a table of numbers"):
        write_table(path, ["a", "b"], [[1.0, 2.0], [3.0]])
    assert path.read_bytes() == b"kept\n"
