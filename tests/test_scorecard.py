"""The accuracy scorecard: both verdicts of `assess` against the labels
of a seeded, stratified bank of the scenario kinds perfbench's batch
workloads draw, with the wrong verdicts pinned by name."""

import numpy as np

from conftest import OSC_PRESET, QV_K1, QV_K2, expected_verdicts, three_generator_specs
from stvs.indices import AssessmentConfig, assess
from stvs.synth import ScenarioParams, synth_scenario

# perfbench's trip-3ch (3 ch, 50 Hz, three generators) and wide-10ch
# (10 ch, 200 Hz, no machine data) records, each group's parameter cut
# into equal strata with one record drawn in each
TRIP = dict(n_channels=3, fs=50.0, post_s=3.0)
WIDE = dict(n_channels=10, fs=200.0, post_s=3.0)
GROUPS = (
    # kind, stratified parameter, its range, records, fixed parameters
    ("stalled-recovery", "level", 0.66, 0.74, 16, TRIP),
    ("mixed", "recovery", 0.7, 1.1, 8, TRIP),
    ("mixed", "recovery", 0.7, 1.3, 8, WIDE),
    ("stable-osc", "decay", 0.3, 0.7, 8, WIDE),
    ("growing-osc", "growth", 0.3, 0.5, 8, WIDE),
)
SEED = 12


def scorecard_bank():
    """(item, kind, params) of every bank record, items numbered from 0."""
    bank = []
    for kind, param, lo, hi, n, base in GROUPS:
        step = (hi - lo) / n
        for stratum in range(n):
            item = len(bank)
            rng = np.random.default_rng((SEED, item))
            drawn = {
                "noise_sigma": rng.uniform(0.0005, 0.0015),
                "seed": int(rng.integers(0, 2**31 - 1)),
            }
            if kind == "stalled-recovery":
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
            drawn[param] = rng.uniform(lo + stratum * step, lo + (stratum + 1) * step)
            params = ScenarioParams(**OSC_PRESET, k1=QV_K1, k2=QV_K2, **base, **drawn)
            bank.append((item, kind, params))
    return bank


# (item, kind, verdict): "oscillation", or the generator whose trip
# verdict is wrong.  None is marginal against the critical value of
# 2.07: the stalled records score 7.3 and 22.6, the stable-osc ones
# 4.6-34.4.  No recovery verdict is wrong.
KNOWN_WRONG_VERDICTS = {
    (0, "stalled-recovery", "oscillation"),
    (6, "stalled-recovery", "oscillation"),
    (32, "stable-osc", "oscillation"),
    (33, "stable-osc", "oscillation"),
    (35, "stable-osc", "oscillation"),
    (39, "stable-osc", "oscillation"),
}


def test_the_scorecard_pins_every_wrong_verdict():
    wrong = set()
    for item, kind, params in scorecard_bank():
        specs = three_generator_specs() if params.n_channels == 3 else None
        osc, trips = expected_verdicts(kind, params, specs)
        result = assess(synth_scenario(kind, params), AssessmentConfig(generators=specs))
        if result.oscillation_classification != osc:
            wrong.add((item, kind, "oscillation"))
        for g in result.per_generator:
            if g.id in trips and (g.classification == "trip") != trips[g.id]:
                wrong.add((item, kind, g.id))
    assert wrong == KNOWN_WRONG_VERDICTS
