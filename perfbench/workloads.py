"""Workload definitions for the drtests benchmark.

A harness workload is a list of calls into `run_type1`/`run_power`; one pass
over the workload makes every call once. Grids are split into one call per
cell where the workload's point allows it, so each run yields enough
latency samples for a steady 95th percentile. The cli workload is a fixed number
of in-process `drt test --verbose` calls on one pre-written wide CSV. Every
input is derived from the workload seed; the program sees only the grids and
the CSV. Import this module only after the BLAS thread count is pinned,
because it imports drtests and so numpy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from drtests import ExperimentGrid, SimConfig

NAMES = ("type1_calib", "power_wide", "power_pool", "cli_test")
SIZES = ("full", "tiny")
# drt test calls that make one pass over cli_test
CLI_CALLS_PER_PASS = {"full": 10, "tiny": 2}
CLI_PVE = 0.99


def nproc() -> int:
    """Processors this process may run on."""
    return min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class HarnessCall:
    runner: str  # "type1" or "power"
    grid: ExperimentGrid

    @property
    def cells(self) -> int:
        """Simulation cells: each is one config tested under every summary."""
        g = self.grid
        xi = 1 if self.runner == "type1" else len(g.xi_values)
        return len(g.group_schemes) * len(g.n_points_values) * xi

    @property
    def replicates(self) -> int:
        return self.cells * self.grid.replicates


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[HarnessCall, ...] = ()
    workers: int = 1
    cli_config: SimConfig | None = None

    @property
    def is_cli(self) -> bool:
        return self.cli_config is not None


def _grid(seed, dist, mean, schemes, n_points, n_basis, xi, reps):
    base = SimConfig(
        n_per_group=(2, 2),
        n_points=1,
        n_basis=n_basis,
        coeff_dist=dist,
        mean_shape=mean,
        noise="ar1",
        rho=0.5,
        seed=seed,
    )
    return ExperimentGrid(
        base=base,
        n_points_values=(n_points,),
        group_schemes=schemes,
        xi_values=xi,
        replicates=reps,
    )


# the harness's default shift grid 0, 0.12, ..., 3, written out so that the
# workload does not follow later changes to that default
_DEFAULT_XI = tuple(round(0.12 * i, 10) for i in range(26))


def build(name: str, size: str, seed: int) -> Workload:
    """The workload `name` at `size` ("full" or "tiny") for `seed`."""
    full = size == "full"
    if name == "type1_calib":
        # the acceptance null grid: two- and three-group schemes, both
        # coefficient laws; small n reaches all three test paths
        schemes = ((10, 10), (25, 25), (10, 10, 10), (25, 25, 25))
        S, K, R = (40, 200, 50) if full else (8, 20, 3)
        calls = tuple(
            HarnessCall("type1", _grid(seed, dist, "none", (scheme,), S, K, (0.0,), R))
            for dist in ("gaussian", "t2")
            for scheme in schemes
        )
        return Workload(name, calls=calls)
    if name == "power_wide":
        # wide curves and a long basis expansion: generation dominates
        scheme, S, K, R = ((50, 50), 360, 1000, 20) if full else ((6, 6), 24, 40, 3)
        calls = tuple(
            HarnessCall("power", _grid(seed, "gaussian", "linear", (scheme,), S, K, (xi,), R))
            for xi in (0.0, 0.3, 0.6)
        )
        return Workload(name, calls=calls)
    if name == "power_pool":
        # many small cells with few replicates each, spread over a pool; one
        # call, so that a pool kept for the whole run can show. The harness
        # runs a cell serially when replicates < 2 * workers, so R is the
        # smallest count that still opens the pool.
        workers = nproc()
        xi, R = (_DEFAULT_XI if full else _DEFAULT_XI[:3]), 2 * workers
        grid = _grid(seed, "gaussian", "linear", ((10, 10),), 40, 200, xi, R)
        return Workload(name, calls=(HarnessCall("power", grid),), workers=workers)
    if name == "cli_test":
        groups, S = ((100, 100), 500) if full else ((10, 10), 20)
        config = SimConfig(
            n_per_group=groups,
            n_points=S,
            n_basis=200,
            mean_shape="linear",
            xi=0.5,
            noise="ar1",
            seed=seed,
        )
        return Workload(name, cli_config=config)
    raise ValueError(f"unknown workload {name!r}")
