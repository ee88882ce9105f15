"""Shared utilities: unit system, constants, RNG streams, logging.

Phase timing lives in :class:`repro.obs.Tracer`, the one clock of a run.

The whole library works in the "galactic" unit system used by ASURA-style
codes: length in parsec, mass in solar masses, time in megayears.  In these
units the gravitational constant is of order 4.5e-3 and one velocity unit is
about 0.978 km/s, which keeps all dynamical quantities within a few orders of
magnitude of unity — convenient for the mixed-precision force kernels
(Sec. 4.3 of the paper).
"""

from repro.util.constants import (
    GRAV_CONST,
    KM_PER_S,
    SN_ENERGY,
    BOLTZMANN,
    PROTON_MASS,
    GAMMA,
    MU_NEUTRAL,
    MU_IONIZED,
    MSUN_G,
    PC_CM,
    MYR_S,
    YR_MYR,
    temperature_to_internal_energy,
    internal_energy_to_temperature,
    sound_speed,
)
from repro.util.rng import RandomStreams, default_rng
from repro.util.logging import get_logger

__all__ = [
    "GRAV_CONST",
    "KM_PER_S",
    "SN_ENERGY",
    "BOLTZMANN",
    "PROTON_MASS",
    "GAMMA",
    "MU_NEUTRAL",
    "MU_IONIZED",
    "MSUN_G",
    "PC_CM",
    "MYR_S",
    "YR_MYR",
    "temperature_to_internal_energy",
    "internal_energy_to_temperature",
    "sound_speed",
    "RandomStreams",
    "default_rng",
    "get_logger",
]
