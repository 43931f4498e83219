"""Seeded inputs for the benchmark workloads.

Each workload draws its inputs from a fixed bank of scenario parameter
sets.  The bank is split into strata, one per pool slot, and the seed
picks one variant in every stratum.  Two effects follow: every seed
sees the same spread of input difficulty (so run-to-run figures stay
steady), and every bank item is fully defined by its index (so the
reference outputs in ``reference/`` cover every seed).

Machine data and the Q-V line are those of the trip-prediction
acceptance test (criterion 8): a 0.9 pu voltage cap behind a 20 s
over-excitation pickup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stvs.indices import AssessmentConfig
from stvs.oel import GeneratorSpec
from stvs.synth import ScenarioParams, synth_scenario

# Oscillation texture of the acceptance-test presets: a 4.8 Hz main
# mode, a faint ambient mode and a fast-decaying fault remnant.
OSC_PRESET = dict(
    freq_hz=4.8,
    osc_amp=0.05,
    ambient_amp=0.005,
    ambient_freq_hz=2.9,
    tr_amp=0.01,
    tr_freq_hz=7.7,
    tr_decay=3.0,
)
QV_K1, QV_K2 = 0.4, 0.8
XD_PRIME, P_ACTIVE = 0.25, 0.85
V_CAP = 0.9
PICKUP_DELAY_S = 20.0
NOISE_SIGMA = (0.0005, 0.0015)

T0 = 1.1  # fault clear time of every scenario: 1.0 s pre-fault + 0.1 s fault
STREAM_ARGV = ("assess", "--stream", "--t0", "1.1", "--report-interval", "0.1")

WORKLOADS = ("trip-3ch", "wide-10ch", "stream-1gen")


def pickup_level() -> float:
    """EMF pickup level whose voltage cap is V_CAP on the scenario Q-V line."""
    v, xd, p = V_CAP, XD_PRIME, P_ACTIVE
    return math.sqrt(
        (v + (xd / QV_K1) * (v - QV_K2) / v) ** 2 + (xd * p / v) ** 2
    )


def generator_specs(ids) -> dict[str, GeneratorSpec]:
    return {
        gid: GeneratorSpec(
            id=gid,
            xd_prime=XD_PRIME,
            p_active=P_ACTIVE,
            pickups=((pickup_level(), PICKUP_DELAY_S),),
        )
        for gid in ids
    }


def generator_ini(ids) -> str:
    """The same machine data in the CLI's --gen-config format."""
    return "".join(
        f"[{gid}]\nxd_prime = {XD_PRIME!r}\np_active = {P_ACTIVE!r}\n"
        f"pickup = {pickup_level()!r}@{PICKUP_DELAY_S!r}\n"
        for gid in ids
    )


def assessment_config(workload: str) -> AssessmentConfig:
    if workload == "trip-3ch":
        return AssessmentConfig(generators=generator_specs(("G1", "G2", "G3")))
    if workload == "wide-10ch":
        return AssessmentConfig()
    raise ValueError(f"{workload} is not a batch workload")


@dataclass(frozen=True)
class Slot:
    """One stratum: a scenario kind and the range of its main parameter."""

    kind: str
    param: str
    lo: float
    hi: float


def _strata(kind: str, param: str, lo: float, hi: float, n: int) -> list[Slot]:
    step = (hi - lo) / n
    return [Slot(kind, param, lo + i * step, lo + (i + 1) * step) for i in range(n)]


@dataclass(frozen=True)
class Bank:
    """Stratified parameter bank of one workload."""

    key: int  # separates the random streams of different workloads
    slots: tuple[Slot, ...]
    variants: int  # bank items per slot
    picks: int  # items per slot in one seed's pool
    base: dict  # fixed scenario parameters

    @property
    def size(self) -> int:
        return len(self.slots) * self.variants

    def params(self, item: int) -> tuple[str, ScenarioParams]:
        """Scenario kind and parameters of bank item ``item``."""
        slot = self.slots[item // self.variants]
        rng = np.random.default_rng((self.key, item))
        drawn = {
            "noise_sigma": rng.uniform(*NOISE_SIGMA),
            "seed": int(rng.integers(0, 2**31 - 1)),
        }
        if slot.kind == "stalled-recovery":
            drawn.update(
                stall_osc_amp=rng.uniform(0.006, 0.014),
                stall_creep=rng.uniform(0.002, 0.006),
            )
        else:
            drawn.update(
                dip=rng.uniform(0.25, 0.35),
                decay=rng.uniform(0.3, 0.6),
                recovery=rng.uniform(0.8, 1.2),
                growth=rng.uniform(0.3, 0.5),
            )
        drawn.update(self.base)
        drawn[slot.param] = rng.uniform(slot.lo, slot.hi)
        params = {**OSC_PRESET, "k1": QV_K1, "k2": QV_K2, **drawn}
        return slot.kind, ScenarioParams(**params)

    def items(self, seed: int) -> list[int]:
        """Bank items of the pool for ``seed``: ``picks`` variants per slot.

        The pool runs through every slot once before repeating one, so
        a partial pass over it keeps the mix of kinds.
        """
        rng = np.random.default_rng((self.key, 1_000_003, seed))
        chosen = [
            rng.choice(self.variants, size=self.picks, replace=False)
            for _ in self.slots
        ]
        return [
            s * self.variants + int(chosen[s][r])
            for r in range(self.picks)
            for s in range(len(self.slots))
        ]


def _interleave(*groups: list[Slot]) -> tuple[Slot, ...]:
    return tuple(s for row in zip(*groups) for s in row)


BANKS = {
    # Trip prediction: two stalled recoveries (ground truth: trip on every
    # generator) per recovering mixed record.  The two kinds cost about
    # 2:1, so an even mix would put the median between them.  Ranges keep
    # every input off the tuner's trivial shortcuts.
    "trip-3ch": Bank(
        key=31,
        slots=_interleave(
            _strata("stalled-recovery", "level", 0.66, 0.70, 8),
            _strata("stalled-recovery", "level", 0.70, 0.74, 8),
            _strata("mixed", "recovery", 0.7, 1.1, 8),
        ),
        variants=8,
        picks=2,
        base=dict(n_channels=3, fs=50.0, post_s=3.0),
    ),
    # EMD scaling: wide, finely sampled records and no machine data, so
    # the recovery tuner never runs.  EMD cost varies a lot between
    # similar inputs, hence the large pool: three quarters of the bank.
    "wide-10ch": Bank(
        key=32,
        slots=_interleave(
            _strata("mixed", "recovery", 0.7, 1.3, 4),
            _strata("stable-osc", "decay", 0.3, 0.7, 4),
            _strata("growing-osc", "growth", 0.3, 0.5, 4),
        ),
        variants=8,
        picks=6,
        base=dict(n_channels=10, fs=200.0, post_s=3.0),
    ),
    # Streaming: 10 s mixed records with reactive power, one generator
    # configured; the tuner runs on every report.  A run holds only two
    # records, so the noise level is fixed: it moves a record's cost by
    # up to a third, which would make the seed's choice of records
    # outweigh everything else.
    "stream-1gen": Bank(
        key=33,
        slots=tuple(_strata("mixed", "recovery", 1.0, 1.2, 2)),
        variants=4,
        picks=1,
        base=dict(n_channels=3, fs=50.0, post_s=8.9, dip=0.3, decay=0.45, noise_sigma=0.001),
    ),
}

STREAM_GENERATORS = ("G1",)


@dataclass(frozen=True)
class Input:
    item: int
    kind: str
    traj: object  # stvs.ingest.VoltageTrajectory


def make_input(workload: str, item: int) -> Input:
    kind, params = BANKS[workload].params(item)
    return Input(item=item, kind=kind, traj=synth_scenario(kind, params))


def make_pool(workload: str, seed: int) -> list[Input]:
    return [make_input(workload, i) for i in BANKS[workload].items(seed)]


def csv_lines(traj) -> list[str]:
    """Header and rows of a record in the CLI's CSV input format."""
    cols = ["time"] + [f"V:{ch.id}" for ch in traj.channels]
    cols += [f"Q:{ch.id}" for ch in traj.channels]
    t = traj.times()
    lines = [",".join(cols)]
    for i in range(traj.n_samples):
        row = [repr(float(t[i]))]
        row += [repr(float(ch.voltage[i])) for ch in traj.channels]
        row += [repr(float(ch.reactive_power[i])) for ch in traj.channels]
        lines.append(",".join(row))
    return lines
