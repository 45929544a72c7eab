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
from dataclasses import fields, replace
from functools import partial

from ._version import __version__
from .errors import InvalidInputError
from .harness import (
    _GRID_KEYS,
    ExperimentGrid,
    _read_config,
    grid_from_dict,
    run_power,
    run_type1,
    write_results,
)
from .io import read_curves_csv, write_curves_csv
from .rank_tests import (
    Alternative,
    DoublyRankedConfig,
    Method,
    _score_block,
    _test_curves,
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
    return schemes


def _parse_list(flag: str, convert, text: str) -> list:
    try:
        return [convert(part) for part in text.split(",") if part]
    except (KeyError, ValueError):
        raise InvalidInputError(f"{flag} got an invalid list: {text!r}") from None


def _parse_xi(text: str) -> dict | list[float]:
    if ":" not in text:
        return _parse_list("--xi", float, text)
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise InvalidInputError(
            f"--xi expects 'start:stop:step' or a comma list, got {text!r}"
        ) from None
    return {"start": start, "stop": stop, "step": step}


# The reader of each grid flag given as text; argparse types the others
_GRID_TEXT = {
    "n_points": partial(_parse_list, "--n-points", int),
    "groups": _parse_groups,
    "xi": _parse_xi,
    "summaries": partial(_parse_list, "--summaries", _SUMMARY_FLAGS.__getitem__),
    "preprocess_pve": _parse_preprocess,
}


def _statistic_name(method: Method) -> str:
    return "H_DR" if method is Method.KW_CHISQ else "T+_DR"


def _cmd_test(args: argparse.Namespace) -> int:
    given = {
        f.name: getattr(args, f.name) for f in fields(DoublyRankedConfig) if f.name in args
    }
    given["preprocess_pve"] = _parse_preprocess(given["preprocess_pve"])
    if "summary" in given:
        given["summary"] = _SUMMARY_FLAGS[given["summary"]]
    # the flags are checked before the file is read
    config = DoublyRankedConfig(**given)
    curves, info = read_curves_csv(args.input)
    for warning in info.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    summary, pve = config.summary, config.preprocess_pve
    result, scores, fit = _test_curves(curves, config)
    kept, achieved = fit or (None, None)
    preprocess_desc = "none"
    if fit:
        preprocess_desc = f"pve={pve:g} (kept {kept} components, achieved {achieved:.6g})"

    group_desc = ", ".join(
        f"{label}(->{g}): n={size}"
        for g, (label, size) in enumerate(
            zip(info.group_labels, curves.group_sizes), start=1
        )
    )
    # the p-value under the other continuity correction, reusing the scores
    flipped = None
    if args.verbose and result.method is Method.MWW_NORMAL:
        other = replace(config, continuity_correction=not config.continuity_correction)
        flipped = _score_block(scores, curves.groups, other).p_value[0]
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
            "components_kept": kept,
            "pve_achieved": achieved,
            "n_subjects": curves.n_subjects,
            "n_points": curves.n_points,
            "version": __version__,
        }
        if args.verbose:
            payload["p_value_flipped"] = flipped
        print(json.dumps(payload, indent=2, allow_nan=False))
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
        if flipped is not None:
            which = "without" if config.continuity_correction else "with"
            print(f"  p-value ({which} continuity correction) {flipped:.6g}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    sim = {f.name: getattr(args, f.name) for f in fields(SimConfig) if f.name in args}
    schemes = _parse_groups(args.n_per_group)
    if len(schemes) != 1:
        raise InvalidInputError(
            "drt simulate --groups takes one scheme like '10,10', "
            f"got {args.n_per_group!r}"
        )
    sim["n_per_group"] = schemes[0]
    config = SimConfig(**sim)
    _check_out(args.out)
    curves = generate_dataset(config, replicate=args.replicate)
    write_curves_csv(curves, args.out)
    print(
        f"wrote {curves.n_subjects} curves on {curves.n_points} points to {args.out}"
    )
    return 0


def _build_grid(args: argparse.Namespace) -> ExperimentGrid:
    """The --config file's keys, else the command's defaults, under each flag given."""
    if args.config is not None:
        spec = _read_config(args.config)
    elif "seed" in args:
        spec = dict(args.grid_defaults)
    else:
        raise InvalidInputError("--seed is required (or provide --config)")
    for key, value in vars(args).items():
        if key in _GRID_KEYS:
            spec[key] = _GRID_TEXT[key](value) if key in _GRID_TEXT else value
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
    """Fail before a draw or a grid run if its output could not be written to path."""
    if not path:
        raise FileNotFoundError("--out is an empty path")
    if os.path.isdir(path):
        raise IsADirectoryError(f"--out {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"--out {path}: no directory {parent}")


def _cmd_grid(args: argparse.Namespace) -> int:
    grid = _build_grid(args)
    _check_out(args.out)
    results = args.runner(grid, workers=args.workers)
    write_results(results, args.out)
    _print_cells(results)
    print(f"wrote {len(results)} cells to {args.out}")
    return 0


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", dest="coeff_dist", choices=[d.value for d in CoeffDist])
    p.add_argument("--noise", choices=[n.value for n in NoiseKind])
    p.add_argument("--rho", type=float)
    p.add_argument("--n-basis", type=int)


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="JSON grid config; each grid flag given overrides its key")
    p.add_argument("--seed", type=int, help="master seed (required without --config)")
    p.add_argument("--out", required=True,
                   help="result table path: jsonl for a .jsonl or .ndjson path, else csv")
    p.add_argument("--reps", dest="replicates", type=int, help="replicates per cell")
    p.add_argument("--n-points", help="comma list of grid sizes")
    p.add_argument("--groups", help="schemes like '10,10;25,25'")
    p.add_argument("--alpha", type=float)
    p.add_argument("--summaries")
    p.add_argument("--preprocess", dest="preprocess_pve", help="'none' or 'pve=<p>'")
    p.add_argument("--workers", type=int, default=1,
                   help="the most processes, counting this one")
    _add_sim_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drt",
        description="Doubly ranked rank-sum tests for grouped curves",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"drt {__version__}")
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False),
    )
    # each command stores a flag only when given, under the DoublyRankedConfig
    # field, SimConfig field or grid config key it sets, so the library's
    # defaults fill the rest
    given_only = {"argument_default": argparse.SUPPRESS}

    p_test = sub.add_parser("test", help="test grouped curves from a CSV file", **given_only)
    p_test.add_argument("input", help="curve CSV (wide or long layout)")
    p_test.add_argument("--summary", choices=list(_SUMMARY_FLAGS))
    p_test.add_argument(
        "--preprocess",
        dest="preprocess_pve",
        help="'none' or 'pve=<p>' (default pve=0.99)",
    )
    p_test.add_argument("--alternative", choices=[a.value for a in Alternative])
    p_test.add_argument("--format", choices=["text", "json"], default="text")
    p_test.add_argument("--exact-threshold", type=int)
    p_test.add_argument(
        "--no-continuity-correction", dest="continuity_correction", action="store_false"
    )
    p_test.add_argument("--verbose", action="store_true", default=False)
    # the one default of drt test's own: it smooths unless told not to
    p_test.set_defaults(func=_cmd_test, preprocess_pve="pve=0.99")

    p_sim = sub.add_parser("simulate", help="write one synthetic dataset", **given_only)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--groups", dest="n_per_group", help="one scheme like '10,10'")
    p_sim.add_argument("--n-points", type=int)
    p_sim.add_argument("--mean", dest="mean_shape",
                       choices=[m.value for m in MeanShape])
    p_sim.add_argument("--xi", type=float)
    p_sim.add_argument("--replicate", type=int, default=0)
    _add_sim_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate,
                       noise="ar1", n_points=40, n_per_group="10,10")

    spec = {"n_points": [40], "groups": [[10, 10]]}
    p_t1 = sub.add_parser("type1", help="null rejection-rate grid", **given_only)
    _add_grid_flags(p_t1)
    p_t1.set_defaults(func=_cmd_grid, runner=run_type1, grid_defaults=spec)

    p_pw = sub.add_parser("power", help="power curve grid", **given_only)
    _add_grid_flags(p_pw)
    p_pw.add_argument("--mean", dest="mean_shape")
    p_pw.add_argument("--xi", help="'start:stop:step' or comma list")
    power_spec = {**spec, "replicates": 300, "mean_shape": "linear"}
    p_pw.set_defaults(func=_cmd_grid, runner=run_power, grid_defaults=power_spec)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
