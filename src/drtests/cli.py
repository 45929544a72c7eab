"""Command-line interface.

Subcommands: `test` runs a doubly ranked test on a curve CSV; `simulate`
writes one synthetic dataset; `type1` and `power` run Monte Carlo grids
and write result tables. Exit codes: 0 success, 2 usage or input error,
1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import replace

from ._version import __version__
from .errors import InvalidInputError
from .harness import (
    ExperimentGrid,
    ResultFormat,
    grid_from_dict,
    load_grid,
    run_power,
    run_type1,
    write_results,
)
from .io import read_curves_csv, write_curves_csv
from .rank_tests import (
    Alternative,
    DoublyRankedConfig,
    Method,
    _doubly_ranked_scores,
    _score_block,
)
from .simgen import CoeffDist, MeanShape, NoiseKind, SimConfig, generate_dataset
from .summaries import SummaryKind

_SUMMARY_FLAGS = {"suff": SummaryKind.SUFFICIENT, "avg": SummaryKind.AVERAGE_RANK}
_REPORT_SCHEMA_VERSION = 1


def _parse_preprocess(text: str) -> float | None:
    if text == "none":
        return None
    if text.startswith("pve="):
        try:
            return float(text[4:])
        except ValueError:
            pass
    raise InvalidInputError(
        f"--preprocess expects 'none' or 'pve=<p>', got {text!r}"
    )


def _parse_groups(text: str) -> tuple[tuple[int, ...], ...]:
    try:
        schemes = tuple(
            tuple(int(part) for part in scheme.split(","))
            for scheme in text.split(";")
            if scheme
        )
    except ValueError:
        raise InvalidInputError(
            f"--groups expects sizes like '10,10;25,25', got {text!r}"
        ) from None
    if not schemes:
        raise InvalidInputError("--groups must list at least one scheme")
    return schemes


def _parse_list(flag: str, text: str, convert) -> list:
    try:
        return [convert(part) for part in text.split(",") if part]
    except (KeyError, ValueError):
        raise InvalidInputError(f"{flag} got an invalid list: {text!r}") from None


def _parse_xi(text: str) -> dict | list[float]:
    if ":" not in text:
        return _parse_list("--xi", text, float)
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise InvalidInputError(
            f"--xi expects 'start:stop:step' or a comma list, got {text!r}"
        ) from None
    return {"start": start, "stop": stop, "step": step}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _statistic_name(method: Method) -> str:
    return "H_DR" if method is Method.KW_CHISQ else "T+_DR"


def _cmd_test(args: argparse.Namespace) -> int:
    curves, info = read_curves_csv(args.input)
    for warning in info.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    summary = _SUMMARY_FLAGS[args.summary]
    config = DoublyRankedConfig(
        summary=summary,
        preprocess_pve=_parse_preprocess(args.preprocess),
        alternative=args.alternative,
        exact_threshold=args.exact_threshold,
        continuity_correction=not args.no_continuity_correction,
    )
    pve = config.preprocess_pve
    (scores,), fits = _doubly_ranked_scores([curves.values], (summary,), pve)
    block = _score_block(scores, curves.groups, curves.n_groups, config)
    result = block.result(config.alternative, curves.group_sizes)
    preprocess_desc, fit = "none", None
    if fits:
        (fit,) = fits
        preprocess_desc = (
            f"pve={pve:g} (kept {fit.components_kept} components, "
            f"achieved {fit.pve_achieved:.6g})"
        )

    group_desc = ", ".join(
        f"{label}(->{g}): n={size}"
        for g, (label, size) in enumerate(
            zip(info.group_labels, curves.group_sizes), start=1
        )
    )
    if args.format == "json":
        payload = {
            "schema_version": _REPORT_SCHEMA_VERSION,
            "command": "test",
            "statistic_name": _statistic_name(result.method),
            "statistic": result.statistic,
            "z_or_df": result.z_or_df,
            "p_value": result.p_value,
            "method": result.method.value,
            "alternative": result.alternative.value,
            "group_sizes": list(result.group_sizes),
            "group_labels": list(info.group_labels),
            "tie_correction_applied": result.tie_correction_applied,
            "summary": summary.value,
            "preprocess_pve": pve,
            "components_kept": fit and fit.components_kept,
            "pve_achieved": fit and fit.pve_achieved,
            "n_subjects": curves.n_subjects,
            "n_points": curves.n_points,
            "version": __version__,
        }
        print(json.dumps(payload, indent=2))
    else:
        deviate_label = "df" if result.method is Method.KW_CHISQ else "z"
        print("doubly ranked test")
        print(f"  statistic    {_statistic_name(result.method)} = {result.statistic:g}")
        print(f"  {deviate_label:<12} {result.z_or_df:g}")
        print(f"  p-value      {result.p_value:.6g}")
        print(f"  method       {result.method.value}")
        print(f"  alternative  {result.alternative.value}")
        print(f"  groups       {group_desc}")
        print(f"  summary      {summary.value}")
        print(f"  preprocess   {preprocess_desc}")
        if result.tie_correction_applied:
            print("  note         tie correction applied")
        if args.verbose and result.method is Method.MWW_NORMAL:
            flipped = _score_block(
                scores,
                curves.groups,
                curves.n_groups,
                replace(config, continuity_correction=args.no_continuity_correction),
            )
            which = "without" if not args.no_continuity_correction else "with"
            print(
                f"  p-value ({which} continuity correction) "
                f"{flipped.p_value[0]:.6g}"
            )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    schemes = _parse_groups(args.groups)
    if len(schemes) > 1:
        raise InvalidInputError(
            f"drt simulate --groups takes one scheme like '10,10', got {args.groups!r}"
        )
    config = SimConfig(
        n_per_group=schemes[0],
        n_points=args.n_points,
        n_basis=args.n_basis,
        coeff_dist=args.dist,
        mean_shape=args.mean,
        xi=args.xi,
        noise=args.noise,
        rho=args.rho,
        seed=args.seed,
    )
    curves = generate_dataset(config, replicate=args.replicate)
    write_curves_csv(curves, args.out)
    print(
        f"wrote {curves.n_subjects} curves on {curves.n_points} points to {args.out}"
    )
    return 0


def _build_grid(args: argparse.Namespace) -> ExperimentGrid:
    if args.config is not None:
        grid = load_grid(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["base"] = replace(grid.base, seed=args.seed)
        if args.reps is not None:
            overrides["replicates"] = args.reps
        if overrides:
            grid = replace(grid, **overrides)
        return grid
    if args.seed is None:
        raise InvalidInputError("--seed is required (or provide --config)")
    spec: dict = {
        "seed": args.seed,
        "coeff_dist": args.dist,
        "mean_shape": args.mean,
        "noise": args.noise,
        "rho": args.rho,
        "n_basis": args.n_basis,
        "n_points": _parse_list("--n-points", args.n_points, int),
        "groups": [list(s) for s in _parse_groups(args.groups)],
        "replicates": args.reps if args.reps is not None else args.default_reps,
        "alpha": args.alpha,
        "summaries": _parse_list(
            "--summaries", args.summaries, lambda s: _SUMMARY_FLAGS[s].value
        ),
    }
    if hasattr(args, "xi") and args.xi is not None:
        spec["xi"] = _parse_xi(args.xi)
    pve = _parse_preprocess(args.preprocess)
    if pve is not None:
        spec["preprocess_pve"] = pve
    return grid_from_dict(spec)


def _print_cells(results) -> None:
    for res in results:
        cell = res.cell
        groups = "+".join(str(g) for g in cell.group_sizes)
        print(
            f"dist={cell.coeff_dist.value} noise={cell.noise.value} "
            f"S={cell.n_points} groups={groups} summary={cell.summary.value} "
            f"xi={cell.xi:g} rate={res.rejection_rate:.4f} "
            f"se={res.mc_stderr:.4f}"
        )


def _check_out(path: str) -> None:
    """Fail before a grid runs if its results could not be written to path."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"--out {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"--out {path}: no directory {parent}")


def _cmd_grid(args: argparse.Namespace) -> int:
    grid = _build_grid(args)
    _check_out(args.out)
    results = args.runner(grid, workers=args.workers)
    write_results(results, args.out, format=args.format)
    _print_cells(results)
    print(f"wrote {len(results)} cells to {args.out}")
    return 0


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", choices=[d.value for d in CoeffDist], default="gaussian")
    p.add_argument("--noise", choices=[n.value for n in NoiseKind], default="ar1")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--n-basis", type=int, default=1000)


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON grid config (overrides inline flags)")
    p.add_argument("--seed", type=int, help="master seed (required without --config)")
    p.add_argument("--out", required=True, help="result table path")
    p.add_argument("--format", choices=[f.value for f in ResultFormat], default="csv")
    p.add_argument("--reps", type=int, help="replicates per cell")
    p.add_argument("--n-points", default="40", help="comma list of grid sizes")
    p.add_argument("--groups", default="10,10", help="schemes like '10,10;25,25'")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--summaries", default="suff,avg")
    p.add_argument("--preprocess", default="none", help="'none' or 'pve=<p>'")
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=os.environ.get("DRT_WORKERS", "1"),
        help="process count (default from DRT_WORKERS, else 1)",
    )
    _add_sim_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drt",
        description="Doubly ranked rank-sum tests for grouped curves",
    )
    parser.add_argument("--version", action="version", version=f"drt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test grouped curves from a CSV file")
    p_test.add_argument("input", help="curve CSV (wide or long layout)")
    p_test.add_argument("--summary", choices=["suff", "avg"], default="suff")
    p_test.add_argument(
        "--preprocess",
        default="pve=0.99",
        help="'none' or 'pve=<p>' (default pve=0.99)",
    )
    p_test.add_argument(
        "--alternative",
        choices=[a.value for a in Alternative],
        default="two-sided",
    )
    p_test.add_argument("--format", choices=["text", "json"], default="text")
    p_test.add_argument("--exact-threshold", type=int, default=50)
    p_test.add_argument("--no-continuity-correction", action="store_true")
    p_test.add_argument("--verbose", action="store_true")
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="write one synthetic dataset")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--groups", default="10,10", help="one scheme like '10,10'")
    p_sim.add_argument("--n-points", type=int, default=40)
    p_sim.add_argument("--mean", choices=[m.value for m in MeanShape], default="none")
    p_sim.add_argument("--xi", type=float, default=0.0)
    p_sim.add_argument("--replicate", type=int, default=0)
    _add_sim_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_t1 = sub.add_parser("type1", help="null rejection-rate grid")
    _add_grid_flags(p_t1)
    p_t1.set_defaults(func=_cmd_grid, runner=run_type1, default_reps=2000, mean="none")

    p_pw = sub.add_parser("power", help="power curve grid")
    _add_grid_flags(p_pw)
    p_pw.add_argument("--mean", dest="mean", default="linear")
    p_pw.add_argument("--xi", default="0:3:0.12", help="'start:stop:step' or comma list")
    p_pw.set_defaults(func=_cmd_grid, runner=run_power, default_reps=300)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        _positive_int(os.environ.get("DRT_WORKERS", "1"))
    except argparse.ArgumentTypeError as exc:
        parser.error(f"DRT_WORKERS: {exc}")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
