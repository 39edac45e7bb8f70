"""Event-triggered multi-agent control with priority-based remote fault
detection: round simulator, static and history-adaptive detectors, Monte
Carlo threshold calibration, experiment harness."""

from .calibration import (CalibrationConfig, SampleBank, calibrate,
                          fit_quantization_scale)
from .config import SystemConfig, build_preset
from .dynamics import AgentModel, noise_stream
from .errors import CalibrationError, ConfigError
from .fd_dynamic import (Period, ThresholdTable, dfd_evaluate, dfd_verdicts,
                         partition_window)
from .fd_static import StaticDetector, sfd_verdicts
from .harness import (AggregateReport, RunRecord, emit_csv, parse_run_record,
                      run_batch)
from .network import ScheduleHistory
from .scenarios import Scenario, resolve_scenario
from .simulate import RunTrace, run_lockstep, run_single

__version__ = "0.1.0"
