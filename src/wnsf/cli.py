"""Command-line front end: simulate datasets, identify models, run Monte
Carlo campaigns, and compute asymptotic covariance bounds.

Experiments are JSON configs validated against a strict schema (unknown
keys are rejected); ``simulate`` and ``montecarlo`` write an echo of the
effective configuration beside their outputs.  ``FLAG_KEYS`` maps each flag
that sets a config key to that key (``--seed``: ``experiment.seed``; the
``identify`` flags: ``wnsf.*``; ``--kind``, ``--grid-size``, ``--n``:
``crb.*``).  ``with_flags`` writes the flags given, each checked by its
key's schema rule, into a copy of the config (for ``identify``, an empty
one), and every command then reads only that document.

Every command runs with one BLAS thread (``blas.single_thread``), so its
outputs do not depend on the core count.

Exit codes: 0 success, 2 config error, 3 simulation infeasible,
4 identification failed, 5 bound computation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
from dataclasses import replace

import jsonschema
import numpy as np

from . import blas
from .crb import (
    GRID_SIZE_DEFAULT,
    NonInformativeError,
    SpectrumModel,
    compute_mcl,
    compute_mcr,
    mbar_limit,
)
from .estimator import IdentificationError, ModelOrders, WnsfOptions, wnsf_identify
from .lti import BjModel, RationalFilter
from .metrics import McExperiment, run_monte_carlo
from .simulate import LOOP_KINDS, DataSet, LoopConfig, UnstableLoopError, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_IDENTIFICATION = 4
EXIT_BOUND = 5

log = logging.getLogger("wnsf")

_COEFFS = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_COUNT = {"type": "integer", "minimum": 1}

_FILTER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {"num": _COEFFS, "den": _COEFFS},
    "required": ["num"],
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["system", "experiment"],
    "properties": {
        "system": {
            "type": "object",
            "additionalProperties": False,
            "required": ["F", "L"],
            "properties": {"F": _COEFFS, "L": _COEFFS, "C": _COEFFS, "D": _COEFFS},
        },
        "controller": _FILTER_SCHEMA,
        "reference": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "num": _COEFFS,
                "den": _COEFFS,
                "gain": {"type": "number"},
            },
            # a denominator alone has no numerator to divide
            "dependentRequired": {"den": ["num"]},
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "std": {"type": "number", "minimum": 0},
                "snr_target": {"type": "number", "exclusiveMinimum": 0},
            },
            # snr_target sets the noise level, so a std beside it is ignored
            "not": {"required": ["std", "snr_target"]},
        },
        "experiment": {
            "type": "object",
            "additionalProperties": False,
            "required": ["N"],
            "properties": {
                "loop_kind": {"enum": list(LOOP_KINDS)},
                "N": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "wnsf": {
            "type": "object",
            "additionalProperties": False,
            "required": ["orders"],
            "properties": {
                # m_f, m_l, m_c, m_d; a plant needs m_f >= 1 and m_l >= 1
                "orders": {
                    "type": "array",
                    "prefixItems": [_COUNT, _COUNT,
                                    {"type": "integer", "minimum": 0},
                                    {"type": "integer", "minimum": 0}],
                    "minItems": 4,
                    "maxItems": 4,
                },
                "n_grid": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                    # a repeated n would be identified twice
                    "uniqueItems": True,
                },
                "max_iter": _COUNT,
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "delta_reg": {"type": "number", "exclusiveMinimum": 0},
                "known_zero_ic": {"type": "boolean"},
            },
        },
        "crb": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["full", "reference_only", "finite_order"]},
                "grid_size": {"type": "integer", "minimum": 2},
                "n": {"type": "integer", "minimum": 1},
            },
        },
    },
}


# JSON numbers are finite, but Python's json reads NaN and +-Infinity and
# argparse's float reads "nan" and "inf"
_DRAFT = jsonschema.Draft202012Validator
_Validator = jsonschema.validators.extend(
    _DRAFT, type_checker=_DRAFT.TYPE_CHECKER.redefine("number", lambda _, x: (
        _DRAFT.TYPE_CHECKER.is_type(x, "number") and math.isfinite(x))))


class ConfigError(ValueError):
    pass


def _field_path(err: jsonschema.ValidationError) -> str:
    path = [str(p) for p in err.absolute_path]
    if err.validator == "required":
        # point at the missing field itself, not just its parent object
        path.append(err.message.split("'")[1])
    return ".".join(path) or "(root)"


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    errors = sorted(_Validator(CONFIG_SCHEMA).iter_errors(doc),
                    key=lambda e: list(e.absolute_path))
    if errors:
        lines = [f"{_field_path(e)}: {e.message}" for e in errors]
        raise ConfigError("invalid config:\n  " + "\n  ".join(lines))
    return doc


def _rule(section: str, key: str) -> dict:
    """The schema rule of the config key ``section.key``."""
    return CONFIG_SCHEMA["properties"][section]["properties"][key]


def _check_flag(flag: str, value, rule: dict):
    """``value`` if it obeys ``rule``, else a config error naming ``flag``."""
    error = jsonschema.exceptions.best_match(_Validator(rule).iter_errors(value))
    if error is not None:
        raise ConfigError(f"{flag}: {error.message}")
    return value


def _int_list(text: str) -> list:
    return [int(p) for p in text.split(",")]


def _n_grid_list(text: str) -> list:
    if ":" not in text:
        return _int_list(text)
    start, stop, *step = [int(p) for p in text.split(":")]
    if len(step) > 1 or min(step, default=1) < 1 or stop < start:
        raise ValueError("expected start:stop[:step], stop >= start, step >= 1")
    return list(range(start, stop + 1, *step))


# flag -> (section, key) of the config key it overrides (argparse stores the
# flag under the key's name), and the reader of its text (None: argparse's)
FLAG_KEYS = {
    "--seed": ("experiment", "seed", None),
    "--orders": ("wnsf", "orders", _int_list),
    "--n-grid": ("wnsf", "n_grid", _n_grid_list),
    "--max-iter": ("wnsf", "max_iter", None),
    "--tol": ("wnsf", "tol", None),
    "--known-zero-ic": ("wnsf", "known_zero_ic", None),
    "--kind": ("crb", "kind", None),
    "--grid-size": ("crb", "grid_size", None),
    "--n": ("crb", "n", None),
}


def _flag_value(flag: str, value):
    """The value of ``flag``, read from its text and checked by the schema
    rule of the config key it sets."""
    section, key, read = FLAG_KEYS[flag]
    try:
        value = value if read is None else read(value)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}")
    return _check_flag(flag, value, _rule(section, key))


def with_flags(doc: dict, args) -> dict:
    """A copy of ``doc`` with each flag given in ``args`` written over the
    config key it sets; ``doc`` stays as read."""
    doc = {section: dict(body) for section, body in doc.items()}
    for flag, (section, key, _) in FLAG_KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            doc.setdefault(section, {})[key] = _flag_value(flag, value)
    return doc


def _from_json(section: str, cls, body):
    try:
        return cls.from_json(body)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}")


# (section, key) -> the LoopConfig field it sets and that field's type;
# integer keys may be written as integral numbers (1e4)
_LOOP_FIELDS = {
    ("experiment", "N"): ("N", int),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "loop_kind"): ("loop_kind", str),
    ("reference", "gain"): ("reference_gain", float),
    ("noise", "std"): ("noise_std", float),
    ("noise", "snr_target"): ("snr_target", float),
}


def loop_config_from(doc: dict) -> LoopConfig:
    """The loop of a validated config; a key it leaves out keeps the
    ``LoopConfig`` default."""
    kwargs = {name: read(doc[section][key])
              for (section, key), (name, read) in _LOOP_FIELDS.items()
              if key in doc.get(section, {})}
    kwargs["system"] = _from_json("system", BjModel, doc["system"])
    if "controller" in doc:
        kwargs["controller"] = _from_json("controller", RationalFilter,
                                          doc["controller"])
    if "num" in doc.get("reference", {}):
        kwargs["reference_filter"] = _from_json("reference", RationalFilter,
                                                doc["reference"])
    return LoopConfig(**kwargs)


def wnsf_settings_from(doc: dict):
    sec = doc.get("wnsf")
    if sec is None:
        raise ConfigError("wnsf: section is required for this command")
    options = {key: value for key, value in sec.items() if key != "orders"}
    return ModelOrders(*map(int, sec["orders"])), WnsfOptions(**options)


@contextlib.contextmanager
def _writing(flag: str):
    """Report a failure to write the outputs named by ``flag`` as a config
    error (a missing directory, a file where a directory should be)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot write output: {exc}")


def _write_json(path, payload):
    """Write ``payload`` to the file ``path``, or to stdout if it is None."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _echo_config(doc: dict, cfg: LoopConfig, data: DataSet, path):
    """Write the config with the values used to generate ``data`` (for a
    campaign, the base-seed record).  Its noise level is the one ``generate``
    chose, which differs from cfg.noise_std under snr_target."""
    _write_json(path, dict(doc, effective={
        "seed": cfg.seed,
        "noise_std": data.noise_std,
        "loop_kind": cfg.loop_kind,
        "N": cfg.N,
    }))


def _generate(cfg: LoopConfig):
    """``generate(cfg)``, or None once the reason it failed is reported: an
    unstable loop, a silent noise path under snr_target, or a record that
    overflows (a signal that is not finite)."""
    try:
        return generate(cfg)
    except (UnstableLoopError, ZeroDivisionError, ValueError) as exc:
        print(f"error: simulation infeasible: {exc}", file=sys.stderr)
        return None


def cmd_simulate(args) -> int:
    doc = load_config(args.config)
    cfg = loop_config_from(with_flags(doc, args))
    data = _generate(cfg)
    if data is None:
        return EXIT_SIMULATION
    if not args.with_noise:
        data = replace(data, e=None)
    with _writing("--out"):
        data.to_csv(args.out)
        _echo_config(doc, cfg, data, args.out + ".config.json")
    log.info("wrote %d samples to %s", data.N, args.out)
    return EXIT_OK


def cmd_identify(args) -> int:
    orders, options = wnsf_settings_from(with_flags({}, args))
    try:
        data = DataSet.from_csv(args.data)
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"--data: cannot load data: {exc}")
    try:
        est = wnsf_identify(data, orders, options)
    except IdentificationError as exc:
        print(f"error: identification failed: {exc}", file=sys.stderr)
        for n, reason in sorted(exc.diagnostics.items()):
            print(f"  n={n}: {reason}", file=sys.stderr)
        with _writing("--out"):
            _write_json(args.out, exc.to_json())
        return EXIT_IDENTIFICATION
    with _writing("--out"):
        _write_json(args.out, est.to_json())
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    # --runs and --jobs set no config key; each counts something
    runs = _check_flag("--runs", args.runs, _COUNT)
    jobs = _check_flag("--jobs", args.jobs, _COUNT)
    doc = load_config(args.config)
    cfg = loop_config_from(doc)
    orders, options = wnsf_settings_from(doc)
    base = _generate(cfg)  # fail fast on an infeasible loop
    if base is None:
        return EXIT_SIMULATION
    exp = McExperiment(loop=cfg, orders=orders, options=options,
                       base_seed=cfg.seed)
    with _writing("--out-dir"):
        os.makedirs(args.out_dir, exist_ok=True)
    result = run_monte_carlo(exp, runs=runs, parallelism=jobs)
    with _writing("--out-dir"):
        result.write_csv(os.path.join(args.out_dir, "runs.csv"))
        result.write_json(os.path.join(args.out_dir, "aggregate.json"))
        _echo_config(doc, cfg, base, os.path.join(args.out_dir, "config.json"))
    agg = result.aggregate()
    log.info("monte carlo aggregate: %s", agg)
    if result.failures == len(result.runs):
        print("error: every Monte Carlo run failed", file=sys.stderr)
        return EXIT_IDENTIFICATION
    _write_json(None, agg)
    return EXIT_OK


def cmd_crb(args) -> int:
    doc = with_flags(load_config(args.config), args)
    cfg = loop_config_from(doc)
    sec = doc.get("crb", {})
    kind = sec.get("kind", "full")
    grid = int(sec.get("grid_size", GRID_SIZE_DEFAULT))
    n = int(sec.get("n", 200))
    # the bound is on the parameters of F and L, so each needs degree >= 1;
    # simulate runs a constant F or L, so the schema cannot reject it
    for name in ("F", "L"):
        if getattr(cfg.system, name).degree < 1:
            raise ConfigError(f"system.{name}: the bound needs degree >= 1")
    try:
        sm = SpectrumModel.from_loop_config(cfg)
    except ValueError as exc:
        raise ConfigError(f"noise.snr_target: {exc}")
    try:
        if kind == "full":
            payload = compute_mcr(sm, grid_size=grid).to_json()
        elif kind == "reference_only":
            M = compute_mcl(sm, grid_size=grid)
            payload = {"M": M.tolist(), "grid_size": grid, "kind": kind}
        else:
            M = mbar_limit(sm, n=n, grid_size=grid)
            payload = {"M": M.tolist(), "grid_size": grid, "kind": kind, "n": n}
    except (NonInformativeError, np.linalg.LinAlgError, ValueError,
            ZeroDivisionError) as exc:
        where = f"{kind}, n = {n}" if kind == "finite_order" else kind
        print(f"error: bound computation failed ({where}): {exc}",
              file=sys.stderr)
        return EXIT_BOUND
    with _writing("--out"):
        _write_json(args.out, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wnsf",
        description="Box-Jenkins identification by weighted null-space fitting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate an input/output dataset")
    p.add_argument("config", help="JSON experiment config")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, help="override experiment.seed")
    p.add_argument("--with-noise", action="store_true",
                   help="include the realized noise column e in the CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="fit a model to a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV (t,r,u,y[,e])")
    p.add_argument("--orders", required=True, metavar="MF,ML,MC,MD")
    # left-out flags keep the WnsfOptions defaults, named in the help
    p.add_argument("--n-grid", help="comma list or start:stop:step range "
                   f"(stop inclusive); default {WnsfOptions.n_grid}")
    p.add_argument("--max-iter", type=int,
                   help=f"default {WnsfOptions.max_iter}")
    p.add_argument("--tol", type=float, help=f"default {WnsfOptions.tol}")
    p.add_argument("--known-zero-ic", action="store_true", default=None,
                   help="data starts from zero initial conditions")
    p.add_argument("--out", default=None, help="write the estimate JSON here")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("montecarlo", help="run a seeded identification campaign")
    p.add_argument("config", help="JSON experiment config with a wnsf section")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("crb", help="compute the asymptotic covariance bound")
    p.add_argument("config", help="JSON experiment config")
    p.add_argument("--grid-size", type=int)
    p.add_argument("--kind", help=", ".join(_rule("crb", "kind")["enum"]))
    p.add_argument("--n", type=int,
                   help="truncation order for the finite-order bound")
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.set_defaults(func=cmd_crb)
    return parser


def _setup_logging():
    level = os.environ.get("WNSF_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with blas.single_thread():
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
