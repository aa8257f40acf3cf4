"""Command line front end: findist <subcommand> [options].

Exit codes: 0 all hard checks passed, 1 at least one check failed,
2 configuration or I/O problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .field import FieldSpec
from .geometry import PointSet
from .harness import CHECKS, STANDARD_SWEEP_P, STANDARD_SWEEP_SIZES, ExperimentConfig, run, validate_checks

SUBCOMMANDS = tuple(CHECKS)

_DEFAULT_FIELD = (7, 1)


class CliError(Exception):
    pass


# what a JSON value of the wrong shape raises on its way into a config
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError)


def _describe(exc: Exception) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _parse_field(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise CliError(f"--field expects p or p,r, got {text!r}")
    try:
        p = int(parts[0])
        r = int(parts[1]) if len(parts) == 2 else 1
    except ValueError as exc:
        raise CliError(f"--field expects integers, got {text!r}") from exc
    return p, r


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="findist",
        description="exact distance, motion, and incidence experiments over small finite fields",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="experiment config JSON")
        cmd.add_argument("--out", help="output path (JSON, or CSV for sweep)")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        cmd.add_argument("--field", help="override the field as p or p,r")
        if name in ("stats", "verify", "reduce", "prune"):
            cmd.add_argument("--points", help="explicit point-set JSON instead of a generator")
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _resolve_config(args) -> ExperimentConfig:
    """One config: the file's or the defaults, the options over it, and the subcommand as its only check."""
    if args.config:
        obj, where = _load_json(args.config), f"bad config {args.config}: "
    else:
        sweep = args.subcommand == "sweep"
        p, r = (STANDARD_SWEEP_P, 1) if sweep else _DEFAULT_FIELD
        params = {"sizes": list(STANDARD_SWEEP_SIZES)} if sweep else {"size": 10}
        obj, where = {"field": {"p": p, "r": r}, "params": params, "seed": 7}, ""
    try:
        # the subcommand replaces the file's checks, which must still be well-formed
        validate_checks(obj.get("checks", ()))
        obj = dict(obj, checks=[args.subcommand])
    except _MALFORMED as exc:
        raise CliError(f"{where}{_describe(exc)}") from exc

    if args.field is not None:
        p, r = _parse_field(args.field)
        try:
            obj["field"] = FieldSpec(p, r).to_json()
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    if args.seed is not None:
        obj["seed"] = args.seed
    if args.out is not None:
        obj["out"] = args.out

    points_path = getattr(args, "points", None)
    if points_path:
        blob = _load_json(points_path)
        try:
            FieldSpec.from_json(blob["field"])
            obj.update(field=blob["field"], generator="explicit", params={"points": blob["points"]})
        except _MALFORMED as exc:
            raise CliError(f"bad point-set file {points_path}: {_describe(exc)}") from exc

    try:
        config = ExperimentConfig.from_json(obj)
    except _MALFORMED as exc:
        raise CliError(f"{where}{_describe(exc)}") from exc
    if config.generator == "explicit":
        # read the points now, so a malformed set is a usage error, not a crash mid-run
        try:
            PointSet.from_json({"field": config.field.to_json(), "points": config.params_dict()["points"]})
        except _MALFORMED as exc:
            raise CliError(f"bad point set in {points_path or args.config}: {_describe(exc)}") from exc
    return config


def _emit(report, subcommand: str) -> None:
    payload = report.render_csv() if subcommand == "sweep" else report.render() + "\n"
    if report.config["out"]:
        try:
            with open(report.config["out"], "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise CliError(f"cannot write {report.config['out']}: {exc}") from exc
    else:
        sys.stdout.write(payload)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        report = run(config)
        _emit(report, args.subcommand)
    except CliError as exc:
        print(f"findist: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"findist: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed() else 1


if __name__ == "__main__":
    raise SystemExit(main())
