"""The run configuration: the stage names, the per-key rule table that
``load_config`` walks, and the checked ``RunConfig`` it returns.

This module imports no numpy and no engine module, so ``hwexposure validate``
checks a configuration and the existence of its inputs without loading the
engine.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import ConfigError

STAGES = ("surface", "exposure", "disparity", "bias")
_FLOAT_MAX = sys.float_info.max  # compares exactly with any int, unlike inf


class RunConfig(NamedTuple):
    years: tuple[int, ...]
    grid: str
    tracts: str
    urban_mask: str | None
    rac: str | None
    wac: str | None
    od: str | None
    stages: tuple[str, ...]
    work_fraction: float  # w of HW = H + w * (W - H)
    bin_counts: tuple[int, ...]
    epsilons: tuple[float, ...]
    thresholds: tuple[float, ...]
    strata: bool
    out_dir: Path
    base_dir: Path
    raw: dict

    def path(self, template: str, year: int | None = None) -> Path:
        """The template for ``year`` (as written without one), against base_dir."""
        return self.base_dir / (template if year is None else template.format(year=year))

    def input_paths(self) -> list[Path]:
        """The tracts and mask, then each year's grid and worker tables."""
        paths = [self.path(name) for name in (self.tracts, self.urban_mask) if name]
        return paths + [self.path(template, year) for year in self.years
                        for template in (self.grid, self.rac, self.wac, self.od) if template]


def _list_of(entry_ok, non_empty: bool = False):
    """A check: a JSON list (non-empty if asked) of entries that ``entry_ok`` takes."""
    return lambda v: type(v) is list and (bool(v) or not non_empty) and all(map(entry_ok, v))


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return type(value) in (int, float)


def _is_path(value) -> bool:
    return type(value) is str and value != ""


def _is_template(value) -> bool:
    """A path that formats with a year: no field but ``{year}``, no stray brace."""
    try:
        return _is_path(value) and value.format(year=2011) != ""
    except (LookupError, ValueError, AttributeError, TypeError):
        return False


_REQUIRED = object()
_TEMPLATE = "a path template with no field but {year}"
_WORKER_TABLE = (None, _TEMPLATE + " or null", lambda v: v is None or _is_template(v))

# Every config key in check order: (default or _REQUIRED, the rule a value must
# meet, as ConfigError prints it, and its check). A list's entries must also not
# repeat. FORMATS.md "Run configuration" lists the same table.
_CONFIG_RULES = {
    "years": (_REQUIRED, "a non-empty list of integers",
              _list_of(lambda y: type(y) is int, non_empty=True)),
    "grid": (_REQUIRED, _TEMPLATE + ", ending in .asc or .csv",
             lambda v: _is_template(v) and Path(v).suffix in (".asc", ".csv")),
    "tracts": (_REQUIRED, "a non-empty string", _is_path),
    "urban_mask": (None, "a non-empty string or null", lambda v: v is None or _is_path(v)),
    "rac": _WORKER_TABLE,
    "wac": _WORKER_TABLE,
    "od": _WORKER_TABLE,
    "stages": (list(STAGES), f"a list of stages from {list(STAGES)}",
               _list_of(STAGES.__contains__)),
    "hw_weights": ({"home": 0.794, "work": 0.206}, "{'home': h, 'work': w}",
                   lambda v: type(v) is dict),
    "bin_counts": ([100, 10], "a list of integers >= 2",
                   _list_of(lambda b: type(b) is int and b >= 2)),
    "epsilons": ([0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0], "a list of finite numbers >= 0",
                 _list_of(lambda e: _is_number(e) and 0 <= e <= _FLOAT_MAX)),
    "thresholds": ([12.0, 10.0, 5.0], "a list of finite numbers > 0",
                   _list_of(lambda t: _is_number(t) and 0 < t <= _FLOAT_MAX)),
    "strata": (True, "true or false", lambda v: type(v) is bool),
    "threads": (1, "an integer >= 1", lambda v: type(v) is int and v >= 1),
    "out_dir": ("out", "a non-empty string", _is_path),
}


def load_config(path: str, out_dir: str | None = None, threads: int | None = None,
                stage: str | None = None) -> RunConfig:
    """Parse and validate a JSON run configuration, in the check order that
    FORMATS.md "Run configuration" gives; the first failure is the ConfigError.

    Optional ``out_dir``, ``threads`` and ``stage`` override their keys, and
    each must meet its key's rule (``stage`` X as ``stages`` [X]); ``threads``
    is checked but not kept. An ``out_dir`` given here resolves against the
    current directory, the config's relative paths against its directory.
    The worker tables are checked for the stages the run writes, since no
    prerequisite reads a table that its stage does not.
    """
    config_path = Path(path)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8-sig"),
                         object_pairs_hook=lambda pairs: _object(path, pairs))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:  # a directory, a path through a file, no read permission
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also an int too long or nesting too deep
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_RULES)
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s) {sorted(unknown)}")

    values = {key: _checked(key, raw) for key in _CONFIG_RULES}
    overrides = {} if threads is None else {"threads": threads}
    if stage is not None:
        overrides["stages"] = [stage]
    if out_dir is not None:  # resolved against the current directory
        overrides["out_dir"] = str(Path(out_dir).absolute())
    values.update((key, _checked(key, overrides)) for key in overrides)
    _check_stage_inputs(values["stages"], values["rac"], values["wac"], values["od"])
    del values["threads"]
    values["work_fraction"] = _work_fraction(values.pop("hw_weights"))

    base_dir = config_path.parent
    config = RunConfig(**{**values, "years": tuple(sorted(values["years"])),
                          "epsilons": tuple(map(float, values["epsilons"])),
                          "thresholds": tuple(map(float, values["thresholds"])),
                          "out_dir": base_dir / values["out_dir"]},
                       base_dir=base_dir, raw=raw)
    inputs = config.input_paths()
    missing = [str(p) for p in inputs if not p.exists()]
    if missing:
        raise ConfigError(f"missing input file(s): {missing}")
    directory = next((p for p in inputs if p.is_dir()), None)
    if directory is not None:
        raise ConfigError(f"{directory}: cannot read input file: Is a directory")
    return config


def _object(path: str, pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of the config file ``path``, once no key repeats in it
    (a dict would keep the last)."""
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ConfigError(f"{path}: repeated config key(s) {repeated}")
    return dict(pairs)


def _checked(key: str, given: dict):
    """The value of config ``key`` in ``given``, or the key's default, once it
    meets the key's rule; a list becomes a tuple."""
    default, rule, check = _CONFIG_RULES[key]
    if key not in given and default is _REQUIRED:
        raise ConfigError(f"config key {key!r} is required")
    value = given.get(key, default)
    if not check(value):
        raise ConfigError(f"{key} must be {rule}, got {value!r}")
    if type(value) is not list:
        return value
    repeated = [v for i, v in enumerate(value) if v in value[:i]]
    if repeated:
        raise ConfigError(f"{key} must not repeat, got {min(repeated)!r} more than once")
    return tuple(value)


def _check_stage_inputs(stages: Sequence[str], rac: str | None, wac: str | None,
                        od: str | None) -> None:
    """The worker tables that these stages read must be configured."""
    if ("exposure" in stages or "disparity" in stages) and not (rac and wac):
        raise ConfigError("rac and wac paths are required for the exposure/disparity stages")
    if "bias" in stages and not od:
        raise ConfigError("od path is required for the bias stage")


def _work_fraction(hw: dict) -> float:
    """The work share of a ``hw_weights`` object: exactly the keys ``home``
    and ``work``, each a JSON number strictly between 0 and 1, summing to 1
    exactly."""
    if sorted(hw) != ["home", "work"]:
        reason = f"keys must be 'home' and 'work', got {sorted(hw)}"
    else:
        reason = next((f"{key} must be a number, got {hw[key]!r}"
                       for key in ("home", "work") if not _is_number(hw[key])), None)
    if reason:
        raise ConfigError(f"hw_weights must be {{'home': h, 'work': w}}: {reason}")
    home, work = hw["home"], hw["work"]
    if not (0.0 < home < 1.0 and 0.0 < work < 1.0):
        raise ConfigError("invalid hw_weights: fractions must lie strictly between 0 and 1")
    if home + work != 1.0:
        raise ConfigError("invalid hw_weights: fractions must sum to 1 exactly")
    return work
