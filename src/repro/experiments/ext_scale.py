"""Extension experiment: announce/listen at population scale.

The paper's consistency results are population-level claims, but the
per-receiver DES tops out around 10^5 receivers: one 10^5-receiver
shard takes ~15 s per 20 simulated seconds on one core and peaks at
~0.55 GB, so 10^6 would need ~5.5 GB (docs/SCALE.md).  This experiment
runs the two scale backends side by side over N = 10^3 .. 10^7:

* the **sharded DES** (``repro.protocols.sharded``) up to its ceiling —
  each shard is an ordinary runner cell, so the pool and the result
  cache apply per shard and the merged rows are byte-identical for any
  shard count or ``--jobs`` value;
* the **mean-field fluid model** (``repro.fluid``) beyond it — cost is
  N-independent, so the 10^6/10^7 rows are milliseconds each;
* the overlap region (N at or below the DES ceiling) cross-validates
  them: the ``fluid_err`` column is the absolute gap between the DES
  tail consistency and the fluid equilibrium ``1 - p^m`` (pinned more
  tightly by ``tests/fluid/test_cross_validation.py``).

Expected result: DES and fluid agree to a few parts in a thousand in
the overlap, and the false-expiry rate scales linearly with N while
the consistency fraction and convergence times do not move — the
million-receiver claims are the small-N curves, rescaled.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.common import (
    ExperimentResult,
    Row,
    horizon_for,
    run_cells,
    sweep_points,
)
from repro.fluid import FluidParams, derive_rates, solve, summarize
from repro.protocols.sharded import (
    merge_shards,
    shard_bounds,
    shard_cell,
    shard_metrics,
)

#: Shared announce/listen scenario: a 4-record store refreshed once per
#: second, records expiring after 4 missed refresh intervals.
N_RECORDS = 4
REFRESH_INTERVAL = 1.0
TIMEOUT_MULTIPLE = 4
TICK = 1.0
FLUID_DT = 0.05

#: (population, shards) pairs for the DES prong.  Shard counts grow
#: with N so per-shard work stays bounded; the merged rows are
#: shard-count-invariant, so these are tuning knobs, not parameters.
DES_POINTS_FULL = [(1000, 2), (3000, 4), (10000, 8)]
DES_POINTS_QUICK = [(300, 2), (1000, 4)]
#: Fluid prong: overlaps the DES range, then runs three decades past
#: the DES ceiling.
FLUID_N_FULL = [1000, 10000, 100000, 1000000, 10000000]
FLUID_N_QUICK = [300, 1000, 1000000]


def _fluid_cell(
    loss: float, n: int, horizon: float, dt: float
) -> Row:
    """One fluid sweep point (pure function of its kwargs: no seed)."""
    params = FluidParams(
        loss=loss,
        refresh_interval=REFRESH_INTERVAL,
        timeout_multiple=TIMEOUT_MULTIPLE,
        n_receivers=float(n),
    )
    summary = summarize(solve(params, horizon, dt), n_records=N_RECORDS)
    return {
        "backend": "fluid",
        "n": n,
        "shards": 1,
        "loss": loss,
        "consistency": summary["consistency"],
        "t50_s": summary["t50_s"],
        "t90_s": summary["t90_s"],
        "t99_s": summary["t99_s"],
        "false_expiry_per_s": summary["false_expiry_per_s"],
        "fluid_err": 0.0,
    }


def _merge_des_rows(
    loss: float, n: int, shards: int, shard_rows: List[Dict[str, Any]]
) -> Row:
    """Fold one DES sweep point's shard cells into its experiment row."""
    merged = merge_shards(shard_rows)
    metrics = shard_metrics(merged)
    hold_eq = derive_rates(
        FluidParams(
            loss=loss,
            refresh_interval=REFRESH_INTERVAL,
            timeout_multiple=TIMEOUT_MULTIPLE,
        )
    ).hold_eq
    return {
        "backend": "des",
        "n": n,
        "shards": shards,
        "loss": loss,
        "consistency": metrics["consistency"],
        "t50_s": metrics["t50_s"],
        "t90_s": metrics["t90_s"],
        "t99_s": metrics["t99_s"],
        "false_expiry_per_s": metrics["false_expiry_per_s"],
        "fluid_err": abs(metrics["consistency"] - hold_eq),
    }


def run(quick: bool = False, seed: int = 0, jobs: int = 1) -> ExperimentResult:
    horizon = horizon_for(quick, full=80.0, reduced=40.0)
    losses = sweep_points(quick, full=[0.05, 0.2, 0.4], reduced=[0.1, 0.4])
    des_points = DES_POINTS_QUICK if quick else DES_POINTS_FULL
    fluid_ns = FLUID_N_QUICK if quick else FLUID_N_FULL

    # DES prong: the *shards* are the cells (a pooled worker cannot
    # nest another pool), flattened here and re-grouped after run_cells.
    des_cells: List[Dict[str, Any]] = []
    groups: List[tuple] = []
    for loss in losses:
        for n, shards in des_points:
            bounds = shard_bounds(n, shards)
            groups.append((loss, n, len(bounds)))
            for index, (lo, hi) in enumerate(bounds):
                des_cells.append(
                    {
                        "n_receivers": n,
                        "lo": lo,
                        "hi": hi,
                        "shard": index,
                        "loss_rate": loss,
                        "seed": seed,
                        "horizon": horizon,
                        "refresh_interval": REFRESH_INTERVAL,
                        "n_records": N_RECORDS,
                        "timeout_multiple": TIMEOUT_MULTIPLE,
                        "tick": TICK,
                    }
                )
    shard_rows = run_cells(shard_cell, des_cells, jobs=jobs)
    rows: List[Row] = []
    cursor = 0
    for loss, n, shards in groups:
        rows.append(
            _merge_des_rows(loss, n, shards, shard_rows[cursor : cursor + shards])
        )
        cursor += shards

    fluid_cells = [
        {"loss": loss, "n": n, "horizon": horizon, "dt": FLUID_DT}
        for loss in losses
        for n in fluid_ns
    ]
    rows.extend(run_cells(_fluid_cell, fluid_cells, jobs=jobs))

    return ExperimentResult(
        experiment_id="ext_scale",
        title="Scale backends: sharded DES vs mean-field fluid (N=10^3..10^7)",
        rows=rows,
        parameters={
            "n_records": N_RECORDS,
            "refresh_interval_s": REFRESH_INTERVAL,
            "timeout_multiple": TIMEOUT_MULTIPLE,
            "horizon_s": horizon,
            "fluid_dt_s": FLUID_DT,
        },
        notes=(
            "Consistency and convergence times are N-invariant while "
            "the false-expiry rate scales linearly with N; in the "
            "overlap region the DES tail consistency sits within a few "
            "parts in a thousand of the fluid equilibrium 1 - p^m "
            "(fluid_err column), which is what licenses the fluid rows "
            "beyond the DES ceiling."
        ),
    )


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
