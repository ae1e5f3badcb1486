"""Command-line front end: simulate datasets, identify models, run Monte
Carlo campaigns, and compute asymptotic covariance bounds.

Experiments are JSON configs.  ``load_config`` rejects unknown and missing
keys and values of the wrong JSON type (``CONFIG_KEYS``); the library
classes a config sets check its values, and each error names the config key
at fault, or the flag that set it.  ``simulate`` and ``montecarlo`` write an
echo of the effective configuration beside their outputs.  ``FLAG_KEYS``
maps each flag that sets a config key to that key (``--seed``:
``experiment.seed``; the ``identify`` flags: ``wnsf.*``; ``--kind``,
``--grid-size``, ``--n``: ``crb.*``).  ``with_flags`` writes the flags
given, each checked for its key's shape, into a copy of the config (for
``identify``, an empty one), and every command then reads only that
document.

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
import re
import sys
from dataclasses import replace

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


def _is_number(x) -> bool:
    # Python's json reads NaN and +-Infinity, and argparse's float "nan" and
    # "inf"; a bool is an int to Python but not a number to JSON
    return type(x) in (int, float) and -math.inf < x < math.inf


def _is_count(x) -> bool:
    return _is_number(x) and x == int(x)


def _is_list(x, test) -> bool:
    return isinstance(x, list) and all(map(test, x))


def _count_from(low):
    return f"an integer >= {low}", lambda x: _is_count(x) and x >= low


# a shape: (what a value of it is, the test of a value)
NUMBER = "a finite number", _is_number
COUNT = "an integer", _is_count
COEFFS = ("a non-empty list of finite numbers",
          lambda x: _is_list(x, _is_number) and len(x) > 0)
CRB_KINDS = ("full", "reference_only", "finite_order")

# section -> {key: its shape}, the keys a config may have.  A shape is a JSON
# type: the values a key may take, and a filter's num, are the rules of the
# library class it sets.  crb sets no class, so its shapes are its rules
CONFIG_KEYS = {
    "system": {"F": COEFFS, "L": COEFFS, "C": COEFFS, "D": COEFFS},
    "controller": {"num": COEFFS, "den": COEFFS},
    "reference": {"num": COEFFS, "den": COEFFS, "gain": NUMBER},
    "noise": {"std": NUMBER, "snr_target": NUMBER},
    "experiment": {"loop_kind": ("a string", lambda x: isinstance(x, str)),
                   "N": COUNT, "seed": COUNT},
    "wnsf": {"orders": ("a list of four integers",
                        lambda x: _is_list(x, _is_count) and len(x) == 4),
             "n_grid": ("a list of integers", lambda x: _is_list(x, _is_count)),
             "max_iter": COUNT, "tol": NUMBER, "delta_reg": NUMBER,
             "known_zero_ic": ("true or false", lambda x: type(x) is bool)},
    "crb": {"kind": (f"one of {', '.join(CRB_KINDS)}",
                     lambda x: x in CRB_KINDS),
            "grid_size": _count_from(2), "n": _count_from(1)},
}
# section -> the keys it must have; a config must have system and experiment
REQUIRED = {"system": ("F", "L"), "experiment": ("N",), "wnsf": ("orders",)}


class ConfigError(ValueError):
    """A bad config, flag or path; ``where`` names the one at fault."""

    def __init__(self, message: str, where: str | None = None):
        super().__init__(message)
        self.where = where


def _mismatch(shape, value):
    """Why ``value`` does not have ``shape``; None if it does."""
    what, test = shape
    return None if test(value) else f"expected {what}, not {value!r}"


def _config_errors(doc) -> list:
    """What is wrong with the keys and JSON types of the config ``doc``."""
    if not isinstance(doc, dict):
        return ["(root): expected an object"]
    errors = [f"{name}: missing" for name in ("system", "experiment")
              if name not in doc]
    for section, body in doc.items():
        if section not in CONFIG_KEYS:
            errors.append(f"(root): unknown key {section!r}")
            continue
        if not isinstance(body, dict):
            errors.append(f"{section}: expected an object, not {body!r}")
            continue
        errors += [f"{section}.{key}: missing"
                   for key in REQUIRED.get(section, ()) if key not in body]
        for key, value in body.items():
            if key not in CONFIG_KEYS[section]:
                errors.append(f"{section}: unknown key {key!r}")
            elif error := _mismatch(CONFIG_KEYS[section][key], value):
                errors.append(f"{section}.{key}: {error}")
        # snr_target sets the noise level, so a std beside it would be ignored
        if section == "noise" and {"std", "snr_target"} <= body.keys():
            errors.append("noise: std and snr_target are both set")
    return errors


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if errors := _config_errors(doc):
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    return doc


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


def _checked(flag: str, value, shape):
    """``value`` if it has ``shape``, else a config error naming ``flag``."""
    if error := _mismatch(shape, value):
        raise ConfigError(error, flag)
    return value


def _flag_value(flag: str, value):
    """The value of ``flag``, read from its text and checked for the shape of
    the config key it sets."""
    section, key, read = FLAG_KEYS[flag]
    try:
        value = value if read is None else read(value)
    except ValueError as exc:
        raise ConfigError(str(exc), flag)
    return _checked(flag, value, CONFIG_KEYS[section][key])


def with_flags(doc: dict, args) -> dict:
    """A copy of ``doc`` with each flag given in ``args`` written over the
    config key it sets; ``doc`` stays as read."""
    doc = {section: dict(body) for section, body in doc.items()}
    for flag, (section, key, _) in FLAG_KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            doc.setdefault(section, {})[key] = _flag_value(flag, value)
    return doc


@contextlib.contextmanager
def _naming(where: str, fields: dict | None = None):
    """Report a ValueError of a library class as a config error naming the
    config key of the field at fault (``fields[field]``; the field is the
    message's first word), else ``where``."""
    try:
        yield
    except ValueError as exc:
        field = re.match(r"\w*", str(exc))[0]
        raise ConfigError(str(exc), (fields or {}).get(field, where)) from None


# (section, key) -> the LoopConfig field it sets
_LOOP_FIELDS = {
    ("experiment", "N"): "N",
    ("experiment", "seed"): "seed",
    ("experiment", "loop_kind"): "loop_kind",
    ("reference", "gain"): "reference_gain",
    ("noise", "std"): "noise_std",
    ("noise", "snr_target"): "snr_target",
}


def loop_config_from(doc: dict) -> LoopConfig:
    """The loop of a validated config; a key it leaves out keeps the
    ``LoopConfig`` default."""
    kwargs = {name: doc[section][key]
              for (section, key), name in _LOOP_FIELDS.items()
              if key in doc.get(section, {})}
    with _naming("system"):
        kwargs["system"] = BjModel.from_json(doc["system"])
    for section, name in (("controller", "controller"),
                          ("reference", "reference_filter")):
        # a reference that sets its gain alone keeps the default filter
        if {"num", "den"} & set(doc.get(section, ())):
            with _naming(section):
                kwargs[name] = RationalFilter.from_json(doc[section])
    with _naming("experiment", {name: ".".join(key)
                                for key, name in _LOOP_FIELDS.items()}):
        return LoopConfig(**kwargs)


def wnsf_settings_from(doc: dict):
    sec = doc.get("wnsf")
    if sec is None:
        raise ConfigError("section is required for this command", "wnsf")
    options = {key: value for key, value in sec.items() if key != "orders"}
    # ModelOrders names its fields m_f .. m_d, which are no wnsf keys
    with _naming("wnsf.orders", {key: f"wnsf.{key}" for key in options}):
        return ModelOrders(*sec["orders"]), WnsfOptions(**options)


@contextlib.contextmanager
def _writing(flag: str):
    """Report a failure to write the outputs named by ``flag`` as a config
    error (a missing directory, a file where a directory should be)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}", flag)


def _write_json(path, payload):
    """Write ``payload`` to the file ``path``, or to stdout if it is None.
    A non-finite number raises ValueError: JSON has no NaN or Infinity."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
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
    unstable loop, a silent noise path under snr_target, a record that
    overflows (a signal that is not finite), or one too long to allocate."""
    try:
        return generate(cfg)
    except (UnstableLoopError, ZeroDivisionError, ValueError) as exc:
        print(f"error: simulation infeasible: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: simulation infeasible: experiment.N is too large: "
              f"{exc}", file=sys.stderr)
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
        raise ConfigError(f"cannot load data: {exc}", "--data")
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
    runs = _checked("--runs", args.runs, _count_from(1))
    jobs = _checked("--jobs", args.jobs, _count_from(1))
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
    agg = result.aggregate()
    with _writing("--out-dir"):
        result.write_csv(os.path.join(args.out_dir, "runs.csv"))
        _write_json(os.path.join(args.out_dir, "aggregate.json"), agg)
        _echo_config(doc, cfg, base, os.path.join(args.out_dir, "config.json"))
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
    # simulate runs a constant F or L, so BjModel accepts it
    for name in ("F", "L"):
        if getattr(cfg.system, name).degree < 1:
            raise ConfigError("the bound needs degree >= 1", f"system.{name}")
    with _naming("noise.snr_target"):
        sm = SpectrumModel.from_loop_config(cfg)
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
            ZeroDivisionError, MemoryError) as exc:
        where = f"{kind}, n = {n}" if kind == "finite_order" else kind
        reason = exc
        if isinstance(exc, MemoryError):
            # the counts size the arrays; only finite_order reads n
            keys = ("crb.grid_size", "crb.n")[:1 + (kind == "finite_order")]
            reason = (f"{' or '.join(_where(args, key) for key in keys)} "
                      f"is too large: {exc}")
        print(f"error: bound computation failed ({where}): {reason}",
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
    p.add_argument("--kind", help=", ".join(CRB_KINDS))
    p.add_argument("--n", type=int,
                   help="truncation order for the finite-order bound")
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.set_defaults(func=cmd_crb)
    return parser


def _where(args, key: str | None) -> str | None:
    """The flag in ``args`` that set the config key ``key``, else ``key``."""
    return next((flag for flag, (section, name, _) in FLAG_KEYS.items()
                 if f"{section}.{name}" == key
                 and getattr(args, name, None) is not None), key)


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
        where = _where(args, exc.where)
        print(f"error: {where}: {exc}" if where else f"error: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
