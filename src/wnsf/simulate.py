"""Data generation for open- and closed-loop experiments.

The closed loop is ``u_t = -K(q) y_t + r_t`` realized through the stable
sensitivity ``S = 1/(1 + K G)``; all signal paths are expanded into rational
filters and applied with zero initial conditions, so every generated record
satisfies ``y = G u + H e`` exactly (up to round-off).

``reference_path`` is the one place that defines how the reference enters
each loop kind; ``generate`` and the bounds in ``crb`` both build on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lti import (
    CONST_ONE,
    CONST_ZERO,
    BjModel,
    Polynomial,
    RationalFilter,
    filter_signal,
    is_stable,
    poly_add,
    poly_mul,
)

LOOP_KINDS = ("open", "closed", "closed_ref_through_K")


class UnstableLoopError(RuntimeError):
    pass


@dataclass(frozen=True)
class LoopConfig:
    system: BjModel
    controller: RationalFilter = field(default=CONST_ZERO)
    reference_filter: RationalFilter = field(default=CONST_ONE)
    reference_gain: float = 1.0
    noise_std: float = 1.0
    N: int = 1000
    seed: int = 0
    loop_kind: str = "closed"
    snr_target: Optional[float] = None
    # Some published experiments close an unstable loop on purpose; signals
    # then grow geometrically but remain finite over short records.
    allow_unstable: bool = False

    def __post_init__(self):
        if self.loop_kind not in LOOP_KINDS:
            raise ValueError(f"loop_kind must be one of {LOOP_KINDS}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.snr_target is not None and self.snr_target <= 0:
            raise ValueError("snr_target must be > 0")


@dataclass(frozen=True)
class DataSet:
    r: np.ndarray
    u: np.ndarray
    y: np.ndarray
    e: Optional[np.ndarray] = None
    seed: Optional[int] = None
    system: Optional[BjModel] = None
    noise_std: Optional[float] = None   # sigma of e as generated

    def __post_init__(self):
        for name in ("r", "u", "y"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.e is not None:
            object.__setattr__(self, "e", np.asarray(self.e, dtype=float))
        lengths = {len(self.r), len(self.u), len(self.y)}
        if self.e is not None:
            lengths.add(len(self.e))
        if len(lengths) != 1:
            raise ValueError("r, u, y (and e) must have equal lengths")
        for name in ("r", "u", "y", "e"):
            v = getattr(self, name)
            if v is not None and not np.all(np.isfinite(v)):
                raise ValueError(f"non-finite values in {name}")

    @property
    def N(self) -> int:
        return len(self.y)

    def to_csv(self, path):
        cols = [self.r, self.u, self.y]
        header = "t,r,u,y"
        if self.e is not None:
            cols.append(self.e)
            header += ",e"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for t in range(self.N):
                row = ",".join("%.17g" % c[t] for c in cols)
                fh.write(f"{t + 1},{row}\n")

    @classmethod
    def from_csv(cls, path) -> "DataSet":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line for line in fh if line.strip()]
        if not rows:
            raise ValueError("no data rows below the header")
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
        if data.shape[1] != len(header):
            raise ValueError(f"rows have {data.shape[1]} columns, the header "
                             f"{len(header)}")
        cols = {name: data[:, i] for i, name in enumerate(header)}
        missing = [name for name in ("r", "u", "y") if name not in cols]
        if missing:
            raise ValueError("the header has no column "
                             + ", ".join(repr(name) for name in missing))
        return cls(
            r=cols["r"], u=cols["u"], y=cols["y"], e=cols.get("e")
        )


def sensitivity(system: BjModel, controller: RationalFilter) -> RationalFilter:
    """S = 1/(1 + K G) as a rational filter; denominator is monic because
    L has no constant term."""
    kd_f = poly_mul(controller.den, system.F)
    kn_l = poly_mul(controller.num, system.L)
    return RationalFilter(kd_f, poly_add(kd_f, kn_l))


def reference_path(system: BjModel, controller: RationalFilter,
                   loop_kind: str) -> tuple[RationalFilter, RationalFilter]:
    """The filters from r to u and from r to y, ``(X F / P, X L / P)``.

    P = Kd F + Kn L is the closed-loop characteristic polynomial.  X = Kd
    when the reference enters below the controller (``closed``, ``open``:
    r -> u is S) and X = Kn when it enters through it
    (``closed_ref_through_K``: r -> u is K S).  This is the one place that
    says what a loop kind means for the reference.
    """
    p = sensitivity(system, controller).den
    if loop_kind == "closed_ref_through_K":
        x = controller.num
        return (RationalFilter(poly_mul(x, system.F), p),
                RationalFilter(poly_mul(x, system.L), p))
    x = controller.den
    # np.convolve is not bitwise commutative; this order reproduces the
    # records generated before the loop kinds shared one path.
    return (RationalFilter(poly_mul(x, system.F), p),
            RationalFilter(poly_mul(system.L, x), p))


def _check_loop(cfg: LoopConfig):
    s = sensitivity(cfg.system, cfg.controller)
    if not cfg.allow_unstable and not is_stable(s.den)[0]:
        raise UnstableLoopError("closed-loop sensitivity is unstable")
    return s


def _draw(cfg: LoopConfig):
    """Independent sub-streams for the reference driver and the noise."""
    ss_r, ss_e = np.random.SeedSequence(cfg.seed).spawn(2)
    r_white = np.random.default_rng(ss_r).standard_normal(cfg.N)
    e_unit = np.random.default_rng(ss_e).standard_normal(cfg.N)
    return r_white, e_unit


def scale_noise_to_snr(cfg: LoopConfig, r: np.ndarray, e_unit: np.ndarray) -> float:
    """Noise standard deviation making the realized signal-to-noise ratio

        sum [ (r -> y) r ]^2  /  sum [ H e ]^2

    equal cfg.snr_target exactly for the given sequences, with r -> y the
    reference path of cfg.loop_kind."""
    if cfg.snr_target is None:
        raise ValueError("snr_target is not set")
    _check_loop(cfg)
    _, r_to_y = reference_path(cfg.system, cfg.controller, cfg.loop_kind)
    sig = filter_signal(r_to_y, r)
    noise_path = filter_signal(cfg.system.H, e_unit)
    den = float(np.sum(noise_path**2))
    if den == 0.0:
        raise ZeroDivisionError("noise path has zero energy")
    return math.sqrt(float(np.sum(sig**2)) / (cfg.snr_target * den))


def generate(cfg: LoopConfig, r=None) -> DataSet:
    """Simulate one record of cfg.loop_kind; ``r`` overrides the reference.

    With X and P from ``reference_path``:

    - ``closed``, ``closed_ref_through_K``: u = (X F / P) r - K S H e,
      y = (X L / P) r + S H e;
    - ``open``: u = S r (no noise path into the input), y = G u + H e.

    If ``cfg.snr_target`` is set, the noise variance is rescaled so the
    realized signal-to-noise ratio hits the target exactly.
    """
    s = _check_loop(cfg)
    r_white, e_unit = _draw(cfg)
    if r is None:
        r = cfg.reference_gain * filter_signal(cfg.reference_filter, r_white)
    else:
        r = np.asarray(r, dtype=float)
    sigma = cfg.noise_std
    if cfg.snr_target is not None:
        sigma = scale_noise_to_snr(cfg, r, e_unit)
    e = sigma * e_unit

    system, k = cfg.system, cfg.controller
    r_to_u, r_to_y = reference_path(system, k, cfg.loop_kind)
    u = filter_signal(r_to_u, r)
    if cfg.loop_kind == "open":
        y = filter_signal(system.G, u) + filter_signal(system.H, e)
    else:
        pd = poly_mul(s.den, system.D)
        ksh = RationalFilter(poly_mul(poly_mul(k.num, system.F), system.C), pd)
        sh = RationalFilter(poly_mul(poly_mul(k.den, system.F), system.C), pd)
        u = u - filter_signal(ksh, e)
        y = filter_signal(r_to_y, r) + filter_signal(sh, e)
    return DataSet(r=r, u=u, y=y, e=e, seed=cfg.seed, system=system,
                   noise_std=sigma)


@dataclass(frozen=True)
class RandomSystemSpec:
    """Sampling ranges for random resonant plants and noise models."""

    pole_pairs: int = 3
    pole_radius: tuple = (0.88, 0.98)
    pole_phase_deg: tuple = (0.0, 90.0)
    zero_pairs: int = 1
    real_zero_range: tuple = (-1.2, 1.2)
    noise_pairs: int = 1
    noise_radius: tuple = (0.0, 0.95)
    noise_phase_deg: tuple = (0.0, 180.0)


def _conjugate_pair_poly(rng, radius_range, phase_range_deg) -> Polynomial:
    rad = rng.uniform(*radius_range)
    phase = np.deg2rad(rng.uniform(*phase_range_deg))
    # (1 - p q^-1)(1 - conj(p) q^-1) with p = rad e^{i phase}
    return Polynomial(np.array([1.0, -2.0 * rad * np.cos(phase), rad**2]))


def random_system(rng: np.random.Generator,
                  spec: RandomSystemSpec = RandomSystemSpec()) -> BjModel:
    """Sample a random Box-Jenkins system with resonant plant poles in an
    annulus and a possibly non-minimum-phase real zero."""
    f = Polynomial(np.array([1.0]))
    for _ in range(spec.pole_pairs):
        f = poly_mul(f, _conjugate_pair_poly(rng, spec.pole_radius,
                                             spec.pole_phase_deg))
    lnum = Polynomial(np.array([0.0, 1.0]))
    for _ in range(spec.zero_pairs):
        lnum = poly_mul(lnum, _conjugate_pair_poly(rng, spec.pole_radius,
                                                   spec.pole_phase_deg))
    z = rng.uniform(*spec.real_zero_range)
    lnum = poly_mul(lnum, Polynomial(np.array([1.0, -z])))

    c = Polynomial(np.array([1.0]))
    d = Polynomial(np.array([1.0]))
    for _ in range(spec.noise_pairs):
        c = poly_mul(c, _conjugate_pair_poly(rng, spec.noise_radius,
                                             spec.noise_phase_deg))
        d = poly_mul(d, _conjugate_pair_poly(rng, spec.noise_radius,
                                             spec.noise_phase_deg))
    return BjModel(L=lnum, F=f, C=c, D=d)
