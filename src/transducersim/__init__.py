"""transducersim: piezo-optomechanical transducer modeling toolkit.

Predicts conversion efficiency and transduction spectra from lumped
device parameters, extracts those parameters from measurement traces,
simulates classical bit-array transmission through the mechanical
channel, and evaluates qubit-swap feasibility.
"""

from .constants import CODATA, PhysicalConstants
from .core import (DeviceParams, PumpState, backaction_rate, cooperativity,
                   efficiencies, photon_number, resolve_photon_number,
                   thermal_occupation, total_efficiency, total_mech_linewidth)
from .deviceio import (DeviceBundle, dbm_to_w, load_device, parse_device,
                       read_trace, w_to_dbm, write_device, write_trace)
from .errors import (DeviceFileError, FitError, InstabilityError,
                     ParameterError, SamplingError, TraceError,
                     TransducerError)
from .fitting import (FitResult, fit_linewidth_vs_photons,
                      fit_lorentzian_multi, fit_optical_dip,
                      fit_phase_detuning, fit_ring)
from .link import (EyeDiagram, LinkConfig, LinkRun, eye_diagram,
                   harmonic_spectrum, link_metrics, parse_bits, run_link)
from .spectra import (CoherentCalibration, MechanicalMode,
                      calibrate_coherent_phonons, driven_spectrum,
                      gamma_me_from_phonons, mech_susceptibility,
                      s_oe_spectrum, sideband_rate,
                      steady_state_coherent_phonons, thermal_spectrum)
from .swap import (QubitConfig, SwapFeasibility, coupling_g_em,
                   qubit_impedance, rabi_swap_sim, swap_feasibility)
from .sweep import SweepSpec, run_sweep, sweep_table
from .trace import Trace

__version__ = "0.1.0"
