import math

import numpy as np
import pytest

from transducersim import (DeviceBundle, DeviceFileError, ParameterError,
                           SweepSpec, Trace, TraceError, load_device,
                           read_trace, run_sweep, write_device, write_trace)
from transducersim.deviceio import (parse_device, parse_device_text,
                                    parse_power, read_points,
                                    resolve_device_path, write_table)

from conftest import relerr


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


def test_trace_rejects_descending_x(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("hz,lin\n2.0,1.0\n1.0,1.0\n")
    with pytest.raises(TraceError):
        read_trace(path)


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


def test_read_points(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("n_c,gamma_hz\n1e4,8.3e6\n2e4,8.2e6\n")
    pts = read_points(path)
    assert pts.shape == (2, 2)
    assert pts[1, 1] == 8.2e6


def test_trace_validates_on_construction():
    with pytest.raises(TraceError):
        Trace(np.array([1.0, 1.0]), np.array([0.0, 0.0]))   # not increasing
    with pytest.raises(TraceError):
        Trace(np.array([1.0, 2.0]), np.array([0.0]))        # length mismatch
    with pytest.raises(TraceError):
        Trace(np.array([1.0, 2.0]), np.array([0.0, np.nan]))
    tr = Trace(np.array([1.0, 2.0, 4.0]), np.array([0.0, 1.0, 0.5]))
    assert len(tr.restrict(1.5, 4.5)) == 2
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


def test_write_table(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ["a", "b"], [[1.0, 2.0], [3.0, 4.5]])
    assert path.read_bytes() == b"a,b\n1,2\n3,4.5\n"


@pytest.mark.parametrize("value", [-0.0, 5e-324, 1e308, 0.1, 3.0])
def test_write_table_cell_is_17g(tmp_path, value):
    path = tmp_path / "cell.csv"
    write_table(path, ["v"], np.array([[value]]))
    assert path.read_text().splitlines()[1] == f"{value:.17g}"
