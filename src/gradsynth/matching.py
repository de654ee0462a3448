"""Gradient-descent sound matching.

Optimizes a chain's continuous parameters against a target signal in an
unconstrained domain (sigmoid-reparameterized onto catalog ranges) and
handles categorical parameters by exhaustive enumeration. Stands in for
the paper-style encoder: same losses, direct per-instance optimization.
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .audio import RenderConfig, Signal
from .autodiff import DiffValue, Tape, exp, sigmoid
from .chains import (
    CellAddress,
    ChainSpec,
    ChainValidationError,
    ParameterAssignment,
    generate_signal,
    validate,
)
from .losses import (
    LossConfig,
    combined_loss,
    log_spectral_distance,
    parameter_loss,
    signal_chain_loss,
    spectral_features,
)
from .modules import CATALOG, LOG_SCALE_PARAMS, resolve_range
from .spectral import Spectrogram

__all__ = [
    "BranchResult",
    "MatchResult",
    "MatcherConfigError",
    "OptimizerConfig",
    "beta_at",
    "match",
]

FixedParams = Mapping[tuple[CellAddress, str], Union[float, str]]


class MatcherConfigError(ValueError):
    """Matcher invoked with an inconsistent configuration."""


@dataclass(frozen=True)
class OptimizerConfig:
    steps: int = 500
    learning_rate: float = 0.05
    algorithm: str = "adam"
    beta_schedule: Optional[tuple[tuple[int, float], ...]] = None
    restarts: int = 8
    seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.steps <= 0:
            raise MatcherConfigError(f"steps must be > 0, got {self.steps}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise MatcherConfigError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.algorithm not in ("sgd", "adam"):
            raise MatcherConfigError(f"algorithm must be 'sgd' or 'adam', got {self.algorithm!r}")
        if self.restarts <= 0:
            raise MatcherConfigError(f"restarts must be > 0, got {self.restarts}")
        if self.jobs <= 0:
            raise MatcherConfigError(f"jobs must be > 0, got {self.jobs}")
        if self.beta_schedule is not None:
            if len(self.beta_schedule) == 0:
                raise MatcherConfigError("beta_schedule must be None or non-empty")
            steps = [s for s, _ in self.beta_schedule]
            if any(b < a for a, b in zip(steps, steps[1:])) or len(set(steps)) != len(steps):
                raise MatcherConfigError("beta_schedule breakpoints must be strictly increasing")
            if not all(math.isfinite(b) and b >= 0 for _, b in self.beta_schedule):
                raise MatcherConfigError("beta values must be finite and >= 0")


def beta_at(schedule: tuple[tuple[int, float], ...], step: int) -> float:
    """Piecewise-linear schedule value, clamped to the endpoint betas."""
    if step < 0:
        raise MatcherConfigError(f"step must be >= 0, got {step}")
    if step <= schedule[0][0]:
        return float(schedule[0][1])
    if step >= schedule[-1][0]:
        return float(schedule[-1][1])
    for (s0, b0), (s1, b1) in zip(schedule, schedule[1:]):
        if s0 <= step <= s1:
            frac = (step - s0) / (s1 - s0)
            return float(b0 + frac * (b1 - b0))
    raise AssertionError("unreachable: schedule is sorted")


@dataclass(frozen=True)
class BranchResult:
    """One (categorical combo, restart) optimization run."""

    combo: tuple[tuple[tuple[CellAddress, str], str], ...]
    restart: int
    trajectory: tuple[float, ...]
    final_loss: float
    diverged: bool
    theta: tuple[tuple[tuple[CellAddress, str], float], ...]


@dataclass(frozen=True)
class MatchResult:
    best: ParameterAssignment
    trajectories: tuple[tuple[float, ...], ...]
    final_loss: float
    final_spectral: float
    final_lsd: float
    wall_time: float
    branches: tuple[BranchResult, ...]
    diverged_branches: tuple[int, ...]


def _free_continuous(chain: ChainSpec, fixed: FixedParams) -> list[tuple[CellAddress, str]]:
    keys = []
    for cell in sorted(chain.cells, key=lambda c: c.address):
        if cell.kind == "empty":
            continue
        for param in CATALOG[cell.kind].continuous:
            if (cell.address, param.name) not in fixed:
                keys.append((cell.address, param.name))
    return keys


def _categorical_combos(chain: ChainSpec, fixed: FixedParams):
    slots, choices = [], []
    for cell in sorted(chain.cells, key=lambda c: c.address):
        if cell.kind == "empty":
            continue
        for param in CATALOG[cell.kind].categorical:
            key = (cell.address, param.name)
            slots.append(key)
            if key in fixed:
                choices.append((str(fixed[key]),))
            else:
                choices.append(tuple(param.choices))
    return [tuple(zip(slots, combo)) for combo in itertools.product(*choices)]


def _reparam(
    chain: ChainSpec,
    theta: Mapping[tuple[CellAddress, str], Union[DiffValue, float]],
    render_config: RenderConfig,
    fixed: FixedParams,
):
    """Map unconstrained scalars onto catalog ranges, cell by cell.

    Returns {(address, name): DiffValue} with every value strictly
    inside its range.  Parameters whose catalog range ends at the render
    duration (``high is None``: the ADSR attack, decay and release) share
    it as a budget: stick-breaking over the remaining time, in catalog
    order, keeps their sum strictly under the duration minus whatever the
    caller fixed of them.
    """
    cell_map = chain.cell_map()
    values = {}
    by_cell: dict[CellAddress, dict[str, Union[DiffValue, float]]] = {}
    for (address, name), raw in theta.items():
        by_cell.setdefault(address, {})[name] = raw
    for address, raw_params in by_cell.items():
        kind = cell_map[address]
        catalog = CATALOG[kind]
        ranges = {p.name: resolve_range(p, render_config) for p in catalog.continuous}
        budgeted = [p.name for p in catalog.continuous if p.high is None]
        budget = [n for n in budgeted if n in raw_params]
        if budget:
            spent = sum(float(fixed[(address, n)]) for n in budgeted if (address, n) in fixed)
            remaining = DiffValue(max(render_config.duration - spent, 0.0))
            for n in budget:
                piece = remaining * sigmoid(raw_params[n])
                values[(address, n)] = piece
                remaining = remaining - piece
        for name, raw in raw_params.items():
            if name in budget:
                continue
            low, high = ranges[name]
            gate = sigmoid(raw)
            if (kind, name) in LOG_SCALE_PARAMS:
                log_low, log_high = math.log(low), math.log(high)
                values[(address, name)] = exp(log_low + gate * (log_high - log_low))
            else:
                values[(address, name)] = low + gate * (high - low)
    return values


def _assignment_from(
    chain: ChainSpec,
    continuous: Mapping[tuple[CellAddress, str], Union[DiffValue, float]],
    combo: Mapping[tuple[CellAddress, str], str],
    fixed: FixedParams,
) -> ParameterAssignment:
    cells: dict[CellAddress, dict] = {}
    for cell in chain.cells:
        if cell.kind == "empty":
            continue
        params: dict[str, Union[DiffValue, float, str]] = {}
        catalog = CATALOG[cell.kind]
        for p in catalog.continuous:
            key = (cell.address, p.name)
            params[p.name] = fixed[key] if key in fixed else continuous[key]
        for p in catalog.categorical:
            params[p.name] = combo[(cell.address, p.name)]
        cells[cell.address] = params
    return ParameterAssignment(cells)


def _step_loss(
    chain: ChainSpec,
    theta: Mapping[tuple[CellAddress, str], Union[DiffValue, float]],
    combo_map: Mapping[tuple[CellAddress, str], str],
    fixed: FixedParams,
    target_features: tuple[Spectrogram, ...],
    target_params: Optional[ParameterAssignment],
    loss_cfg: LossConfig,
    beta: float,
    render_config: RenderConfig,
):
    continuous = _reparam(chain, theta, render_config, fixed)
    assignment = _assignment_from(chain, continuous, combo_map, fixed)
    param_part = DiffValue(0.0)
    if target_params is not None:
        param_part = parameter_loss(
            chain, assignment, target_params, loss_cfg.regression_kind, render_config
        )
    spectral_part = DiffValue(0.0)
    if beta > 0.0:
        trace = generate_signal(chain, assignment, render_config)
        spectral_part = signal_chain_loss(trace, target_features, loss_cfg)
    return combined_loss(param_part, spectral_part, beta)


def _run_branch(
    combo_index: int,
    combo: tuple,
    restart: int,
    *,
    chain: ChainSpec,
    target_features: tuple[Spectrogram, ...],
    loss_cfg: LossConfig,
    opt_cfg: OptimizerConfig,
    target_params: Optional[ParameterAssignment],
    fixed: FixedParams,
    render_config: RenderConfig,
) -> BranchResult:
    combo_map = dict(combo)
    free_keys = _free_continuous(chain, fixed)
    rng = np.random.default_rng(
        np.random.SeedSequence(opt_cfg.seed, spawn_key=(combo_index, restart))
    )
    theta = {key: float(rng.uniform(-2.0, 2.0)) for key in free_keys}

    adam_m = dict.fromkeys(free_keys, 0.0)
    adam_v = dict.fromkeys(free_keys, 0.0)
    trajectory: list[float] = []
    diverged = False
    frozen = None  # the loss once theta can no longer move
    final_beta = (
        beta_at(opt_cfg.beta_schedule, opt_cfg.steps - 1)
        if opt_cfg.beta_schedule is not None
        else loss_cfg.beta
    )
    for step in range(opt_cfg.steps):
        beta = (
            beta_at(opt_cfg.beta_schedule, step)
            if opt_cfg.beta_schedule is not None
            else loss_cfg.beta
        )
        tape = Tape()
        tracked = {
            key: tape.parameter(theta[key], f"{key[0].channel},{key[0].layer}:{key[1]}")
            for key in free_keys
        }
        total = _step_loss(
            chain,
            tracked,
            combo_map,
            fixed,
            target_features,
            target_params,
            loss_cfg,
            beta,
            render_config,
        )
        value = total.value
        trajectory.append(value)
        if not np.isfinite(value):
            diverged = True
            break
        if total.node is None:
            # nothing differentiable this step (a silent combination, or
            # every parameter fixed); with a constant beta, theta and so
            # the loss are frozen for good
            if opt_cfg.beta_schedule is None:
                frozen = value
                trajectory.extend([value] * (opt_cfg.steps - step - 1))
                break
            continue
        grads = tape.backward(total)
        lr = opt_cfg.learning_rate
        for key in free_keys:
            g = grads[f"{key[0].channel},{key[0].layer}:{key[1]}"]
            if opt_cfg.algorithm == "sgd":
                theta[key] -= lr * g
            else:
                adam_m[key] = 0.9 * adam_m[key] + 0.1 * g
                adam_v[key] = 0.999 * adam_v[key] + 0.001 * g * g
                m_hat = adam_m[key] / (1.0 - 0.9 ** (step + 1))
                v_hat = adam_v[key] / (1.0 - 0.999 ** (step + 1))
                theta[key] -= lr * m_hat / (math.sqrt(v_hat) + 1e-8)
        if any(not np.isfinite(theta[key]) for key in free_keys):
            diverged = True
            break
    if diverged or not trajectory:
        final_loss = float("nan")
    elif frozen is not None:
        final_loss = frozen
    else:
        # loss at the post-update parameters, so branch comparison sees
        # the point the assignment is actually built from
        final = _step_loss(
            chain,
            theta,
            combo_map,
            fixed,
            target_features,
            target_params,
            loss_cfg,
            final_beta,
            render_config,
        )
        final_loss = final.value
    return BranchResult(
        combo=combo,
        restart=restart,
        trajectory=tuple(trajectory),
        final_loss=final_loss,
        diverged=diverged,
        theta=tuple(sorted((k, theta[k]) for k in free_keys)),
    )


def match(
    target: Signal,
    chain: ChainSpec,
    loss_cfg: LossConfig,
    opt_cfg: OptimizerConfig,
    target_params: Optional[ParameterAssignment] = None,
    fixed_params: Optional[FixedParams] = None,
    render_config: RenderConfig = RenderConfig(),
) -> MatchResult:
    """Fit chain parameters to a target signal; returns the best branch.

    Every (categorical combination, restart) pair is optimized
    independently and the lowest final loss wins. Optional connections
    are treated as fixed in their declared state. Unsupervised runs
    (no ``target_params``) must keep the spectral weight positive at
    every step, since the parameter term is then unavailable.
    """
    started = time.perf_counter()
    violations = validate(chain)
    if violations:
        raise ChainValidationError(violations)
    if loss_cfg.cells != "output":
        raise MatcherConfigError(
            "matching a bare target signal requires cells='output'; intermediate "
            "cell signals of the target are unobservable"
        )
    if len(target) != render_config.num_samples:
        raise MatcherConfigError(
            f"target length {len(target)} != render length {render_config.num_samples}"
        )
    if target.sample_rate != render_config.sample_rate:
        raise MatcherConfigError(
            f"target sample rate {target.sample_rate} != render rate "
            f"{render_config.sample_rate}"
        )
    if target_params is None:
        if opt_cfg.beta_schedule is not None:
            betas = [beta_at(opt_cfg.beta_schedule, s) for s in range(opt_cfg.steps)]
            if min(betas) <= 0.0:
                raise MatcherConfigError(
                    "unsupervised matching requires beta > 0 at every step"
                )
        elif loss_cfg.beta <= 0.0:
            raise MatcherConfigError("unsupervised matching requires beta > 0")

    fixed = dict(fixed_params or {})
    combos = _categorical_combos(chain, fixed)
    # the target is constant, so its spectra are computed once per call
    target_features = spectral_features(target, loss_cfg)
    run_branch = functools.partial(
        _run_branch,
        chain=chain,
        target_features=target_features,
        loss_cfg=loss_cfg,
        opt_cfg=opt_cfg,
        target_params=target_params,
        fixed=fixed,
        render_config=render_config,
    )
    jobs = [
        (combo_index, combo, restart)
        for combo_index, combo in enumerate(combos)
        for restart in range(opt_cfg.restarts)
    ]
    if opt_cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=opt_cfg.jobs) as pool:
            branches = list(pool.map(run_branch, *zip(*jobs)))
    else:
        branches = [run_branch(*job) for job in jobs]

    finished = [b for b in branches if not b.diverged and np.isfinite(b.final_loss)]
    if not finished:
        raise MatcherConfigError("all optimization branches diverged")
    best_branch = min(finished, key=lambda b: b.final_loss)

    continuous = _reparam(chain, dict(best_branch.theta), render_config, fixed)
    flat = {k: v.value for k, v in continuous.items()}
    best = _assignment_from(chain, flat, dict(best_branch.combo), fixed)

    trace = generate_signal(chain, best, render_config)
    final_spectral = signal_chain_loss(trace, target_features, loss_cfg).value
    final_lsd = log_spectral_distance(trace.output, target, max(loss_cfg.windows))
    return MatchResult(
        best=best,
        trajectories=tuple(b.trajectory for b in branches),
        final_loss=best_branch.final_loss,
        final_spectral=final_spectral,
        final_lsd=final_lsd,
        wall_time=time.perf_counter() - started,
        branches=tuple(branches),
        diverged_branches=tuple(i for i, b in enumerate(branches) if b.diverged),
    )
