"""Model validation: invariants, properties, fidelity gate, golden store.

Four layers, cheapest first (``scripts/validate.py`` exposes them as
tiers):

1. :mod:`~repro.validate.invariants` — conservation laws any finished
   :class:`~repro.sim.result.SimResult` must satisfy, plus an opt-in
   live validator the engine calls at kernel boundaries.
2. :mod:`~repro.validate.properties` — metamorphic properties across
   config sweeps (more bandwidth never hurts, bigger caches never add
   link traffic, one GPM never goes remote, reruns are bit-identical).
3. :mod:`~repro.validate.claims` — every paper claim declared once, as a
   band on one experiment's output; the fidelity tier holds the headline
   orderings and effect sizes (Figures 6/9/13/15/16/17) as two-sided
   tolerance bands, and ``benchmarks/`` asserts every claim.
4. :mod:`~repro.validate.golden` — exact golden-metrics snapshots with a
   bless/compare workflow and per-metric drift reports.
"""

from .analytical import (
    Calibration,
    CalibrationError,
    ClassBand,
    fit_calibration,
    golden_prediction_rows,
    load_calibration,
)
from .claims import FidelityCheck
from .golden import DriftReport, GoldenStore, bless, compare, run_golden_matrix
from .invariants import (
    InvariantError,
    LiveValidator,
    Violation,
    check_live_system,
    check_result,
    validated_run,
)
from .properties import PropertyOutcome, micro_suite, run_properties

__all__ = [
    "Calibration",
    "CalibrationError",
    "ClassBand",
    "DriftReport",
    "FidelityCheck",
    "GoldenStore",
    "InvariantError",
    "LiveValidator",
    "PropertyOutcome",
    "Violation",
    "bless",
    "check_live_system",
    "check_result",
    "compare",
    "fit_calibration",
    "golden_prediction_rows",
    "load_calibration",
    "micro_suite",
    "run_golden_matrix",
    "run_properties",
    "validated_run",
]
