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
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .audio import RenderConfig, Signal, fan_out
from .autodiff import DiffValue, Tape, sigmoid, sigmoid_gate
from .chains import (
    CellAddress,
    ChainSpec,
    ParameterAssignment,
    RenderTrace,
    generate_signal,
)
from .losses import (
    LossConfig,
    chain_features,
    combined_loss,
    log_spectral_distance,
    parameter_loss,
    signal_chain_loss,
)
from .modules import SHARED_DURATION, ContinuousParam, duration_left, unit_scale

__all__ = [
    "BranchResult",
    "MatchResult",
    "MatcherConfigError",
    "OptimizerConfig",
    "beta_at",
    "match",
]

FixedParams = "Mapping[tuple[CellAddress, str], Union[float, str]]"


class MatcherConfigError(ValueError):
    """Matcher invoked with an inconsistent configuration."""


@dataclass(frozen=True)
class OptimizerConfig:
    steps: int = 500
    learning_rate: float = 0.05
    algorithm: str = "adam"
    # (step, beta) breakpoints of the spectral weight; one pair is a constant
    beta_schedule: tuple[tuple[int, float], ...] = ((0, 1.0),)
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
        if len(self.beta_schedule) == 0:
            raise MatcherConfigError("beta_schedule must be non-empty")
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
    final_loss: float
    final_spectral: float
    final_lsd: float
    wall_time: float
    branches: tuple[BranchResult, ...]
    diverged_branches: tuple[int, ...]


def _search_space(chain: ChainSpec, fixed: FixedParams):
    """The free continuous keys and every categorical combination, in
    the order of the chain's parameter table; a fixed categorical has its
    fixed label as its only choice.
    """
    params = chain.params
    free = [k for k, p in params.items() if isinstance(p, ContinuousParam) and k not in fixed]
    slots = [k for k, p in params.items() if not isinstance(p, ContinuousParam)]
    choices = [(str(fixed[k]),) if k in fixed else params[k].choices for k in slots]
    return free, [tuple(zip(slots, combo)) for combo in itertools.product(*choices)]


def _assignment(
    chain: ChainSpec,
    theta: Mapping[tuple[CellAddress, str], Union[DiffValue, float]],
    combo: Mapping[tuple[CellAddress, str], str],
    fixed: FixedParams,
    render_config: RenderConfig,
) -> ParameterAssignment:
    """The assignment at unconstrained ``theta``: one walk of the chain's
    parameter table, with every gate at ``render_config``.

    Categorical labels come from ``combo`` and fixed values are copied;
    every other continuous value is gated strictly inside its range.  The
    parameters that share the render duration (``modules.SHARED_DURATION``:
    the ADSR attack, decay and release) break what
    ``modules.duration_left`` says their cell's fixed ones leave of it, in
    catalog order: each takes a sigmoid fraction of the time still left.
    Where a gate saturates, rounding can put their sum one ulp past the
    duration, inside the slack ``modules.apply_adsr`` allows.
    """
    kinds = chain.module_cells
    params: dict = {}
    for key, p in chain.params.items():
        address, name = key
        shared = SHARED_DURATION[kinds[address]]
        if shared and name == shared[0]:  # the cell's first segment: its time budget
            segments = [(address, n) for n in shared]
            left = duration_left((fixed[k] for k in segments if k in fixed), render_config)
            remaining = DiffValue(max(left, 0.0))  # the time still left
        if not isinstance(p, ContinuousParam):
            value = combo[key]
        elif key in fixed:
            value = fixed[key]
        elif name in shared:
            value = remaining * sigmoid(theta[key])
            remaining = remaining - value
        else:
            value = sigmoid_gate(theta[key], *unit_scale(p, render_config))
        params[key] = value
    return ParameterAssignment(params)


def _loss_parts(
    theta: Mapping[tuple[CellAddress, str], Union[DiffValue, float]],
    combo_map: Mapping[tuple[CellAddress, str], str],
    render: bool,
    *,
    chain: ChainSpec,
    fixed: FixedParams,
    target_features: Mapping[str, tuple[DiffValue, ...]],
    target_params: Optional[ParameterAssignment],
    loss_cfg: LossConfig,
    render_config: RenderConfig,
) -> tuple[DiffValue, DiffValue]:
    """The parameter and spectral parts of the loss at ``theta``; the
    spectral part is 0 unless ``render``."""
    assignment = _assignment(chain, theta, combo_map, fixed, render_config)
    param_part = DiffValue(0.0)
    if target_params is not None:
        param_part = parameter_loss(
            chain, assignment, target_params, loss_cfg.regression_kind, render_config
        )
    spectral_part = DiffValue(0.0)
    if render:
        trace = generate_signal(chain, assignment, render_config)
        spectral_part = signal_chain_loss(trace, target_features, loss_cfg)
    return param_part, spectral_part


def _run_branch(
    branch: tuple[int, tuple, int],
    *,
    loss_parts: Callable[..., tuple[DiffValue, DiffValue]],
    free_keys: list[tuple[CellAddress, str]],
    betas: tuple[float, ...],
    opt_cfg: OptimizerConfig,
) -> BranchResult:
    """Optimize one (combo index, combo, restart) branch; ``betas`` holds
    the spectral weight of each step."""
    combo_index, combo, restart = branch
    combo_map = dict(combo)
    rng = np.random.default_rng(
        np.random.SeedSequence(opt_cfg.seed, spawn_key=(combo_index, restart))
    )
    theta = rng.uniform(-2.0, 2.0, size=len(free_keys))
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    trajectory: list[float] = []
    diverged = False
    frozen = None  # the loss parts once theta can no longer move
    for step, beta in enumerate(betas):
        if frozen is None:
            tape = Tape()
            tracked = {key: tape.parameter(t, key) for key, t in zip(free_keys, theta)}
            parts = loss_parts(tracked, combo_map, beta > 0.0)
            total = combined_loss(*parts, beta)
            if total.node is None:
                # nothing differentiable (a silent combination, or every
                # parameter fixed): theta cannot move, so every step's loss
                # is these two parts at its own beta
                if beta == 0.0 and max(betas) > 0.0:  # the spectral part is still untaken
                    parts = loss_parts(tracked, combo_map, True)
                frozen = parts
        if frozen is not None:
            total = combined_loss(frozen[0], frozen[1] if beta > 0.0 else DiffValue(0.0), beta)
        value = total.value
        trajectory.append(value)
        if not np.isfinite(value):
            diverged = True
            break
        if frozen is not None:
            continue
        grads = tape.backward(total)
        del tape, tracked, parts, total  # so the next step's forward does not overlap this tape
        g = np.array([grads[key] for key in free_keys])
        # an update that overflows marks the branch diverged just below
        with np.errstate(over="ignore", invalid="ignore"):
            if opt_cfg.algorithm == "sgd":
                theta -= opt_cfg.learning_rate * g
            else:
                adam_m = 0.9 * adam_m + 0.1 * g
                adam_v = 0.999 * adam_v + 0.001 * g * g
                m_hat = adam_m / (1.0 - 0.9 ** (step + 1))
                v_hat = adam_v / (1.0 - 0.999 ** (step + 1))
                theta -= opt_cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        if not np.isfinite(theta).all():
            diverged = True
            break
    final_theta = dict(zip(free_keys, theta.tolist()))
    if diverged:
        final_loss = float("nan")
    elif frozen is not None:
        final_loss = trajectory[-1]
    else:
        # loss at the post-update parameters, so branch comparison sees
        # the point the assignment is actually built from
        parts = loss_parts(final_theta, combo_map, betas[-1] > 0.0)
        final_loss = combined_loss(*parts, betas[-1]).value
    return BranchResult(
        combo=combo,
        restart=restart,
        trajectory=tuple(trajectory),
        final_loss=final_loss,
        diverged=diverged,
        theta=tuple(sorted(final_theta.items())),
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
    independently and the lowest final loss wins. Every declared
    connection, optional ones included, stays on: the fitted assignments
    carry no connection states. Unsupervised runs (no ``target_params``)
    must keep the spectral weight, ``opt_cfg.beta_schedule``, positive at
    every step, since the parameter term is then unavailable.
    """
    started = time.perf_counter()
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
    betas = tuple(beta_at(opt_cfg.beta_schedule, s) for s in range(opt_cfg.steps))
    if target_params is None and min(betas) <= 0.0:
        raise MatcherConfigError("unsupervised matching requires beta > 0 at every step")

    fixed = dict(fixed_params or {})
    unknown = [f"{CellAddress(*a)}.{name}" for a, name in fixed.keys() - chain.params.keys()]
    if unknown:
        raise MatcherConfigError(
            f"fixed_params name no parameter of chain {chain.name!r}: {', '.join(sorted(unknown))}"
        )
    # the target is constant, so its features are taken once per call
    target_features = chain_features(RenderTrace({}, target), loss_cfg)
    loss_parts = functools.partial(
        _loss_parts,
        chain=chain,
        fixed=fixed,
        target_features=target_features,
        target_params=target_params,
        loss_cfg=loss_cfg,
        render_config=render_config,
    )
    free_keys, combos = _search_space(chain, fixed)
    run_branch = functools.partial(
        _run_branch, loss_parts=loss_parts, free_keys=free_keys, betas=betas, opt_cfg=opt_cfg
    )
    runs = [(i, combo, r) for i, combo in enumerate(combos) for r in range(opt_cfg.restarts)]
    branches = fan_out(run_branch, runs, opt_cfg.jobs)

    finished = [b for b in branches if not b.diverged and np.isfinite(b.final_loss)]
    if not finished:
        raise MatcherConfigError("all optimization branches diverged")
    best_branch = min(finished, key=lambda b: b.final_loss)

    at_best = _assignment(
        chain, dict(best_branch.theta), dict(best_branch.combo), fixed, render_config
    )
    best = ParameterAssignment(
        {k: v.value if isinstance(v, DiffValue) else v for k, v in at_best.params.items()}
    )

    trace = generate_signal(chain, best, render_config)
    final_spectral = signal_chain_loss(trace, target_features, loss_cfg).value
    final_lsd = log_spectral_distance(trace.output, target, max(loss_cfg.windows))
    return MatchResult(
        best=best,
        final_loss=best_branch.final_loss,
        final_spectral=final_spectral,
        final_lsd=final_lsd,
        wall_time=time.perf_counter() - started,
        branches=tuple(branches),
        diverged_branches=tuple(i for i, b in enumerate(branches) if b.diverged),
    )
