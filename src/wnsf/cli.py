"""Command-line front end: simulate datasets, identify models, run Monte
Carlo campaigns, and compute asymptotic covariance bounds.

Experiments are described by a JSON config file validated against a strict
schema (unknown keys are rejected).  Every command that writes results also
writes an echo of the effective configuration alongside, so each artifact is
self-describing.

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

from .crb import (
    GRID_SIZE_DEFAULT,
    NonInformativeError,
    SpectrumModel,
    compute_mcl,
    compute_mcr,
    mbar_limit,
)
from .estimator import IdentificationError, ModelOrders, WnsfOptions, wnsf_identify
from .lti import BjModel, Polynomial, RationalFilter
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
        missing = err.message.split("'")[1]
        path.append(missing)
    return ".".join(path) or "(root)"


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    validator = _Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        lines = [f"{_field_path(e)}: {e.message}" for e in errors]
        raise ConfigError("invalid config:\n  " + "\n  ".join(lines))
    return doc


def _rule(section: str, key: str) -> dict:
    """The schema rule of the config key ``section.key``."""
    return CONFIG_SCHEMA["properties"][section]["properties"][key]


def _check_flag(flag: str, value, rule: dict):
    """``value`` if it obeys ``rule``, the schema rule of the config key that
    the flag sets; a flag that was not given (None) passes."""
    if value is not None:
        error = jsonschema.exceptions.best_match(
            _Validator(rule).iter_errors(value))
        if error is not None:
            raise ConfigError(f"{flag}: {error.message}")
    return value


def _poly(coeffs) -> Polynomial:
    return Polynomial(np.asarray(coeffs, dtype=float))


def _filter_from(section, default: RationalFilter) -> RationalFilter:
    if section is None:
        return default
    num = _poly(section["num"])
    den = _poly(section.get("den", [1.0]))
    return RationalFilter(num, den)


def loop_config_from(doc: dict, seed_override=None) -> LoopConfig:
    sys_sec = doc["system"]
    try:
        system = BjModel(
            L=_poly(sys_sec["L"]),
            F=_poly(sys_sec["F"]),
            C=_poly(sys_sec.get("C", [1.0])),
            D=_poly(sys_sec.get("D", [1.0])),
        )
        controller = _filter_from(
            doc.get("controller"), RationalFilter(_poly([0.0]))
        )
        reference = _filter_from(doc.get("reference"), RationalFilter(_poly([1.0])))
    except ValueError as exc:
        raise ConfigError(str(exc))
    ref_sec = doc.get("reference") or {}
    noise = doc.get("noise") or {}
    exp = doc["experiment"]
    seed = exp.get("seed", 0) if seed_override is None else seed_override
    try:
        return LoopConfig(
            system=system,
            controller=controller,
            reference_filter=reference,
            reference_gain=float(ref_sec.get("gain", 1.0)),
            noise_std=float(noise.get("std", 1.0)),
            N=int(exp["N"]),
            seed=int(seed),
            loop_kind=exp.get("loop_kind", "closed"),
            snr_target=noise.get("snr_target"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def wnsf_settings_from(doc: dict):
    sec = doc.get("wnsf")
    if sec is None:
        raise ConfigError("wnsf: section is required for this command")
    orders = ModelOrders(*sec["orders"])
    kwargs = {}
    for key in ("n_grid", "max_iter", "tol", "delta_reg", "known_zero_ic"):
        if key in sec:
            kwargs[key] = tuple(sec[key]) if key == "n_grid" else sec[key]
    return orders, WnsfOptions(**kwargs)


def parse_orders(text: str) -> ModelOrders:
    """'m_f,m_l,m_c,m_d', checked by the rule of ``wnsf.orders``."""
    try:
        orders = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--orders: {exc}")
    _check_flag("--orders", orders, _rule("wnsf", "orders"))
    return ModelOrders(*orders)


def parse_n_grid(text: str):
    """Either a comma list '50,100,150' or a range 'start:stop:step'
    (stop inclusive); checked by the rule of ``wnsf.n_grid``."""
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError("expected start:stop[:step]")
            if step < 1 or stop < start:
                raise ValueError("need stop >= start and step >= 1")
            grid = list(range(start, stop + 1, step))
        else:
            grid = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--n-grid: {exc}")
    return tuple(_check_flag("--n-grid", grid, _rule("wnsf", "n_grid")))


@contextlib.contextmanager
def _writing(flag: str):
    """Report a failure to write the outputs named by ``flag`` as a config
    error (a missing directory, a file where a directory should be)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot write output: {exc}")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _echo_config(doc: dict, cfg: LoopConfig, data: DataSet, path):
    """Write the config with the values used to generate ``data`` (for a
    campaign, the base-seed record).  Its noise level is the one ``generate``
    chose, which differs from cfg.noise_std under snr_target."""
    effective = dict(doc)
    effective["effective"] = {
        "seed": cfg.seed,
        "noise_std": data.noise_std,
        "loop_kind": cfg.loop_kind,
        "N": cfg.N,
    }
    _write_json(path, effective)


def cmd_simulate(args) -> int:
    doc = load_config(args.config)
    seed = _check_flag("--seed", args.seed, _rule("experiment", "seed"))
    cfg = loop_config_from(doc, seed_override=seed)
    try:
        data = generate(cfg)
    except (UnstableLoopError, ZeroDivisionError) as exc:
        log.error("simulation infeasible: %s", exc)
        print(f"error: simulation infeasible: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    if not args.with_noise:
        data = replace(data, e=None)
    with _writing("--out"):
        data.to_csv(args.out)
        _echo_config(doc, cfg, data, args.out + ".config.json")
    log.info("wrote %d samples to %s", data.N, args.out)
    return EXIT_OK


def cmd_identify(args) -> int:
    orders = parse_orders(args.orders)
    kwargs = {"known_zero_ic": args.known_zero_ic}
    if args.n_grid is not None:
        kwargs["n_grid"] = parse_n_grid(args.n_grid)
    if args.max_iter is not None:
        kwargs["max_iter"] = _check_flag("--max-iter", args.max_iter,
                                         _rule("wnsf", "max_iter"))
    if args.tol is not None:
        kwargs["tol"] = _check_flag("--tol", args.tol, _rule("wnsf", "tol"))
    options = WnsfOptions(**kwargs)
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
        return EXIT_IDENTIFICATION
    payload = est.to_json()
    if args.out:
        with _writing("--out"):
            _write_json(args.out, payload)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    # --runs and --jobs set no config key; each counts something
    runs = _check_flag("--runs", args.runs, _COUNT)
    jobs = _check_flag("--jobs", args.jobs, _COUNT)
    doc = load_config(args.config)
    cfg = loop_config_from(doc)
    orders, options = wnsf_settings_from(doc)
    try:
        base = generate(cfg)  # fail fast on an infeasible loop
    except (UnstableLoopError, ZeroDivisionError) as exc:
        print(f"error: simulation infeasible: {exc}", file=sys.stderr)
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
    json.dump(agg, sys.stdout, indent=2, sort_keys=True)
    print()
    return EXIT_OK


def cmd_crb(args) -> int:
    doc = load_config(args.config)
    cfg = loop_config_from(doc)
    crb_sec = doc.get("crb") or {}

    def setting(flag, key, default):
        value = _check_flag(flag, getattr(args, key), _rule("crb", key))
        return crb_sec.get(key, default) if value is None else value

    kind = setting("--kind", "kind", "full")
    grid = setting("--grid-size", "grid_size", GRID_SIZE_DEFAULT)
    n = setting("--n", "n", 200)
    try:
        sm = SpectrumModel.from_loop_config(cfg)
    except ValueError as exc:
        raise ConfigError(f"noise.snr_target: {exc}")
    try:
        if kind == "full":
            res = compute_mcr(sm, grid_size=grid)
            payload = res.to_json()
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
    if args.out:
        with _writing("--out"):
            _write_json(args.out, payload)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
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
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
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
    p.add_argument("--known-zero-ic", action="store_true",
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
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--kind", default=None,
                   help=", ".join(_rule("crb", "kind")["enum"]))
    p.add_argument("--n", type=int, default=None,
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
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
