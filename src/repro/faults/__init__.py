"""Calibrated GPU fault substrate.

This subpackage is the generative half of the reproduction: it plants
ground-truth fault chains on a simulated cluster, shaped by the statistics
the paper published for Delta (``AMPERE_CALIBRATION``).  The analysis pipeline
in :mod:`repro.core` never reads these ground-truth events directly — it only
sees the rendered syslog text — so recovering the calibration constants from
the logs is an end-to-end test of the paper's methodology.
"""

from repro.faults.calibration import (
    AMPERE_CALIBRATION,
    H100_CALIBRATION,
    CalibrationProfile,
    XidCalibration,
)
from repro.faults.events import ErrorEvent, FaultTrace
from repro.faults.injector import FaultInjector, InjectorConfig
from repro.faults.variants import (
    burned_in_profile,
    profile_variant,
)
from repro.faults.xid import Xid, XidCategory, XidInfo, XID_CATALOG, RecoveryAction

__all__ = [
    "AMPERE_CALIBRATION",
    "H100_CALIBRATION",
    "CalibrationProfile",
    "XidCalibration",
    "ErrorEvent",
    "FaultTrace",
    "FaultInjector",
    "InjectorConfig",
    "burned_in_profile",
    "profile_variant",
    "Xid",
    "XidCategory",
    "XidInfo",
    "XID_CATALOG",
    "RecoveryAction",
]
