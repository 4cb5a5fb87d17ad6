"""Command-line entry point.

Subcommands mirror the pipeline stages plus `run` (all configured stages),
`validate`, `ingest` (parse and check tables without writing), and `synth`
(generate a synthetic input set). Logs go to stderr; data only to files.
"""
from __future__ import annotations

import argparse
import logging
import sys

from . import ingest, pipeline
from .errors import ConfigError, EngineError

logger = logging.getLogger("hwexposure")

GRADIENT_KINDS = ("work_hotspot", "uniform", "linear_x")  # synth.GRADIENT_KINDS


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--threads", type=int,
                        help="accepted and validated (>= 1) for older configs; no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwexposure",
        description="Mobility-adjusted air-pollution exposure and disparity engine",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("validate", "check the configuration and input files"),
        ("ingest", "parse and validate the worker tables"),
        ("surface", "build per-tract concentration surfaces"),
        ("exposure", "compute exposure and error records"),
        ("disparity", "compute disparity and inequality metrics"),
        ("bias", "compute measurement-error bias and rank-sum comparisons"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_config_options(p)
        if name in pipeline.STAGES:  # a stage subcommand is `run --stage <name>`
            p.set_defaults(stage=name)

    p_run = sub.add_parser("run", help="run all configured stages and write the manifest")
    _add_config_options(p_run)
    p_run.add_argument("--stage", choices=pipeline.STAGES,
                       help="run a single stage (prerequisites are computed, not written)")

    p_synth = sub.add_parser("synth", help="generate a synthetic input set")
    p_synth.add_argument("--out", required=True, help="directory for the generated files")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--tracts", type=int, default=9)
    p_synth.add_argument("--groups", type=int, default=3)
    p_synth.add_argument("--gradient", choices=GRADIENT_KINDS, default="work_hotspot")
    p_synth.add_argument("--base", type=float, default=6.0, help="gradient base level (ug/m3)")
    p_synth.add_argument("--amplitude", type=float, default=8.0, help="gradient peak above base")
    p_synth.add_argument("--year", type=int, default=2011)
    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    config = pipeline.load_config(args.config, args.out, args.threads)
    logger.info("config ok: years=%s stages=%s inputs=%d",
                list(config.years), list(config.stages), len(config.input_paths()))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = pipeline.load_config(args.config, args.out, args.threads)
    for year in config.years:
        for role, template, units in (
            (ingest.RESIDENCE, config.rac, ("blocks", "tracts")),
            (ingest.WORKPLACE, config.wac, ("blocks", "tracts")),
            (ingest.ORIGIN_DESTINATION, config.od, ("block pairs", "tract pairs")),
        ):
            if not template:
                continue
            n_blocks, table = ingest.read_tracts(str(config.path(template, year)), role)
            logger.info("%s %d: %d %s -> %d %s, %d workers", role, year, n_blocks, units[0],
                        len(table.totals), units[1], int(table.totals.sum()))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = pipeline.load_config(args.config, args.out, args.threads)
    pipeline.run(config, only_stage=args.stage)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from . import synth  # only this command needs the generator
    spec = synth.GradientSpec(kind=args.gradient, base=args.base, amplitude=args.amplitude)
    synth.synth(args.out, seed=args.seed, n_tracts=args.tracts,
                n_groups=args.groups, gradient=spec, year=args.year)
    logger.info("synthetic world written to %s", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_run(args)  # run and the stage subcommands
    except ConfigError as exc:
        logger.error("configuration error: %s", exc)
        return 2
    except EngineError as exc:  # a StageError names its stage
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
