"""Attack resilience — the paper's malicious-wear claim, quantified.

Not a numbered figure, but a claim the paper leans on twice: Start-Gap and
Security Refresh "consider malicious attacks that keep writing at the same
set of addresses" (Section II), and under "highly biased write
distribution ... and malicious attacks, including birthday paradox attack,
the benefit of WL-Reviver is still substantial" (Section IV-B).  This
experiment measures chip lifetime under three adversarial streams for the
frozen baseline and the revived system, with the same harness conventions
as the numbered experiments (``run``/``render``/``as_dict``; CLI name
``attacks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import StartGapConfig
from ..sim import FastConfig, FastEngine
from ..traces import birthday_paradox_attack, hammer_attack
from ..traces.base import DistributionTrace
from ..traces.synthetic import hotspot_distribution
from ..wl import StartGap
from .common import ScaledParameters, build_chip, scaled_parameters
from .parallel import Cell, GridRunner, cell_seed
from .report import format_number, format_table

#: CLI names of the adversarial streams, in report order.
ATTACKS = ("birthday-paradox-64", "hammer-8", "hot-region-cov10")


def _attack_trace(name: str, params: ScaledParameters,
                  seed: int) -> DistributionTrace:
    blocks = params.num_blocks
    if name == "birthday-paradox-64":
        return birthday_paradox_attack(blocks, set_size=64, seed=seed)
    if name == "hammer-8":
        return hammer_attack(blocks, targets=8, seed=seed)
    if name == "hot-region-cov10":
        return hotspot_distribution(blocks, target_cov=10.0, seed=seed)
    raise KeyError(f"unknown attack {name!r}")


def _lifetime(params: ScaledParameters, trace: DistributionTrace,
              recovery: str, seed: int) -> int:
    chip = build_chip(params)
    leveler = StartGap(chip.num_blocks,
                       config=StartGapConfig(psi=params.psi))
    engine = FastEngine(chip, leveler, trace,
                        FastConfig(recovery=recovery,
                                   batch_writes=params.batch_writes,
                                   seed=seed))
    return engine.run().lifetime_writes


@dataclass(frozen=True)
class AttackRow:
    """Lifetimes of one adversarial stream under both systems."""

    attack: str
    frozen_lifetime: int
    revived_lifetime: int

    @property
    def gain(self) -> float:
        """Relative lifetime gain of revival."""
        return self.revived_lifetime / max(self.frozen_lifetime, 1) - 1.0


@dataclass(frozen=True)
class AttackResult:
    """All adversarial streams."""

    rows: List[AttackRow]
    scale: str


def _cell(scale: str, attack: str, recovery: str, trace_seed: int,
          seed: int) -> dict:
    """One grid cell: a single engine run under one attack stream."""
    params = scaled_parameters(scale)
    trace = _attack_trace(attack, params, trace_seed)
    return {"lifetime": _lifetime(params, trace, recovery, seed)}


def grid(scale: str, seed: int) -> List[Cell]:
    """The (attack x system) grid."""
    cells = []
    for attack in ATTACKS:
        for recovery in ("none", "reviver"):
            key = f"attacks/{scale}/{attack}/{recovery}"
            cells.append(Cell(key=key, fn=f"{__name__}:_cell",
                              kwargs=dict(scale=scale, attack=attack,
                                          recovery=recovery,
                                          trace_seed=seed + 2,
                                          seed=cell_seed(seed, key))))
    return cells


def run(scale: str = "small", benchmarks: Optional[List[str]] = None,
        seed: int = 1,
        runner: Optional[GridRunner] = None) -> AttackResult:
    """Measure both systems' lifetimes under each attack stream.

    ``benchmarks`` is accepted for CLI uniformity and ignored: attack
    streams replace the workload.
    """
    runner = runner or GridRunner()
    values = runner.run(grid(scale, seed))
    rows = [AttackRow(
        attack=attack,
        frozen_lifetime=values[f"attacks/{scale}/{attack}/none"]["lifetime"],
        revived_lifetime=values[f"attacks/{scale}/{attack}/reviver"]
        ["lifetime"])
        for attack in ATTACKS]
    return AttackResult(rows=rows, scale=scale)


def render(result: AttackResult) -> str:
    """Lifetime table under adversarial writes."""
    headers = ["Attack", "ECP6-SG (frozen)", "ECP6-SG-WLR", "Gain"]
    rows = [[r.attack, format_number(r.frozen_lifetime),
             format_number(r.revived_lifetime), f"+{100 * r.gain:.0f}%"]
            for r in result.rows]
    title = (f"Attack resilience: writes to 30% capacity lost under "
             f"malicious streams (scale={result.scale})")
    return format_table(headers, rows, title=title)


def as_dict(result: AttackResult) -> Dict[str, Dict[str, float]]:
    """Machine-readable form for tests and notebooks."""
    return {r.attack: {"frozen": r.frozen_lifetime,
                       "revived": r.revived_lifetime, "gain": r.gain}
            for r in result.rows}
