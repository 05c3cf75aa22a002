"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures without
swallowing unrelated bugs::

    try:
        design = designer.run()
    except ReproError as exc:
        ...  # configuration or modelling problem, not a programming bug
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class NetlistError(ReproError):
    """A netlist is structurally invalid (cycles, dangling wires, ...)."""


class SimulationError(ReproError):
    """A netlist simulation was asked to do something impossible."""


class SynthesisError(ReproError):
    """A circuit generator received inconsistent parameters."""


class CarbonModelError(ReproError):
    """The carbon model was configured with unphysical parameters."""


class ArchitectureError(ReproError):
    """An accelerator configuration is invalid or out of model range."""


class MappingError(ReproError):
    """No legal mapping exists for a layer on a given architecture."""


class WorkloadError(ReproError):
    """A DNN workload description is malformed."""


class AccuracyModelError(ReproError):
    """The accuracy predictor cannot evaluate the requested setup."""


class OptimizationError(ReproError):
    """A search (GA / NSGA-II) was configured inconsistently."""


class ConstraintError(ReproError):
    """A design constraint set is unsatisfiable or ill-formed."""


class ExperimentError(ReproError):
    """An experiment harness was invoked with invalid settings."""
