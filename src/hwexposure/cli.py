"""Command-line entry point.

Subcommands mirror the pipeline stages plus `run` (all configured stages),
`validate`, `ingest` (parse and check tables without writing), and `synth`
(generate a synthetic input set). Logs go to stderr; data only to files.

Each command imports only what it runs: `validate`, `--help` and every
configuration error end before numpy or an engine module is loaded.

`entry` is the process entry (`python -m hwexposure.cli` and the console
script); in-process callers use `main`, which returns the exit code.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import STAGES, load_config
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
        ("validate", "check the configuration and that each input exists and is a file"),
        ("ingest", "parse and validate the worker tables"),
        ("surface", "build per-tract concentration surfaces"),
        ("exposure", "compute exposure and error records"),
        ("disparity", "compute disparity and inequality metrics"),
        ("bias", "compute measurement-error bias and rank-sum comparisons"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_config_options(p)
        if name in STAGES:  # a stage subcommand is `run --stage <name>`
            p.set_defaults(stage=name)

    p_run = sub.add_parser("run", help="run all configured stages and write the manifest")
    _add_config_options(p_run)
    p_run.add_argument("--stage", choices=STAGES,
                       help="run one stage: overrides the config's stages with [STAGE]")

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
    config = load_config(args.config, args.out, args.threads)
    logger.info("config ok: years=%s stages=%s inputs=%d",
                list(config.years), list(config.stages), len(config.input_paths()))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.out, args.threads)
    from . import ingest  # loaded once the configuration is known to be valid
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
    config = load_config(args.config, args.out, args.threads, args.stage)
    from . import pipeline  # loaded once the configuration is known to be valid
    pipeline.run(config)
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
    except EngineError as exc:
        logger.error("%s", exc)
        return 1


def entry() -> None:
    """Run ``main`` and end the process with its code, without interpreter
    teardown. Every file ``main`` writes is closed when it returns; the logs
    and standard streams are flushed here. An exception escaping ``main``
    unwinds through the normal exit (a traceback and exit 1)."""
    rc = main()
    logging.shutdown()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a broken or closed stream: the normal exit reports it
        sys.exit(rc)
    os._exit(rc)


if __name__ == "__main__":
    entry()
