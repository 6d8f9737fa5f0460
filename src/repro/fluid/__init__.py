"""Mean-field fluid backend for announce/listen at population scale.

The DES path models every receiver individually and tops out around
10^5 receivers; this package evolves *state fractions* instead —
unaware / consistent / stale / falsely-expired — under the mean-field
ODE limit of the announce/listen epoch chain (docs/SCALE.md).  Cost is
independent of the population size, so sweeps at N=10^6 and beyond are
a few milliseconds per cell, and the model is cross-validated against
the sharded DES backend in the overlap region (``tests/fluid/``).

* :mod:`repro.fluid.model` — parameters, hazard derivation, the
  fixed-step RK4 integrator (numpy-vectorized with a pure-python
  fallback);
* :mod:`repro.fluid.metrics` — the same consistency / convergence /
  false-expiry summaries the DES sessions publish, so fluid cells slot
  into ``map_cells``, the result cache, and telemetry unchanged.
"""

from repro.fluid.model import (
    DEFAULT_DT,
    FluidParams,
    FluidRates,
    FluidRun,
    consecutive_loss_probability,
    derive_rates,
    mean_loss_probability,
    solve,
    solve_many,
)
from repro.fluid.metrics import crossing_times_to, summarize

__all__ = [
    "DEFAULT_DT",
    "FluidParams",
    "FluidRates",
    "FluidRun",
    "consecutive_loss_probability",
    "crossing_times_to",
    "derive_rates",
    "mean_loss_probability",
    "solve",
    "solve_many",
    "summarize",
]
