"""Adaptive APSK constellation design for constant-envelope MISO precoding.

The transmitter sends one symbol per channel use with unit-modulus
per-antenna weights; the set of reachable noise-free receive points is an
annulus determined by the channel.  This package designs MED-optimal
two-ring APSK constellations fitting that annulus, synthesizes the
constant-envelope transmit signal realizing each point, and simulates the
resulting link over Rayleigh fading.
"""

__version__ = "1.0.0"

from .channel import annulus_arrays, ratio_cdf_m2, sample_rayleigh
from .constellation import (med, modulus_ratio, qam_family, qfunc,
                            ser_union_bound)
from .optimizer import (DesignResult, Region, RegionTable,
                        build_region_table, build_suboptimal_table, solve_p2,
                        solve_p21)
from .precoder import phases_for_targets, reconstruct, transmit
from .sim import (SCHEMES, RateCurve, SerCurve, SimConfig, run_csit_sweep,
                  run_fixed_rate_ser, run_variable_rate, snr_at_bits,
                  snr_at_ser)

__all__ = [
    "__version__",
    "annulus_arrays", "ratio_cdf_m2", "sample_rayleigh",
    "med", "modulus_ratio", "qam_family", "qfunc", "ser_union_bound",
    "DesignResult", "Region", "RegionTable", "build_region_table",
    "build_suboptimal_table", "solve_p2", "solve_p21",
    "phases_for_targets", "reconstruct", "transmit",
    "SCHEMES", "RateCurve", "SerCurve", "SimConfig", "run_csit_sweep",
    "run_fixed_rate_ser", "run_variable_rate", "snr_at_bits", "snr_at_ser",
]
