"""Tree-vs-direct force error on the 4,000-particle MW-mini halo.

The gravity tile may regroup its float sums (pair blocks, coordinate
planes); that changes every digest, so the digests cannot say whether the
forces got worse.  This test can: the relative acceleration error of the
tree pass against a float64 direct sum, p50 and p99 over the particles, at
three opening angles in both precisions, must stay within 1.05x of the
values recorded before the tile was blocked (the frozen numbers below),
and the total energy over the benchmark probe's ten steps must drift no
more than the probe allows.
"""

import numpy as np
import pytest

from repro import GalaxySimulation
from repro.analysis.conservation import ConservationAudit
from repro.gravity.kernels import accel_direct
from repro.gravity.treegrav import tree_accel
from repro.ic.galaxy import make_mw_mini

N, SEED = 4000, 15

#: (precision, theta) -> (p50, p99) of |a_tree - a_direct| / |a_direct|,
#: measured with the source-chunked tile (n_g = 256, leaf_size = 16).
RECORDED = {
    ("mixed", 0.3): (2.0863511133874246e-05, 1.4290250230098036e-04),
    ("mixed", 0.5): (9.556388488652219e-05, 6.835388608994291e-04),
    ("mixed", 0.7): (4.6107758261164486e-04, 3.992639058378277e-03),
    ("float64", 0.3): (2.0935275931637526e-05, 1.430655975032658e-04),
    ("float64", 0.5): (9.56229270692341e-05, 6.841728060576582e-04),
    ("float64", 0.7): (4.609974449963902e-04, 3.9928283519009185e-03),
}

#: The energy-drift bound of the end-to-end benchmark's gravity probe.
DRIFT_BOUND = 5e-3
DRIFT_STEPS = 10


@pytest.fixture(scope="module")
def halo():
    ps = make_mw_mini(N, seed=SEED)
    return ps, accel_direct(ps.pos, ps.mass, ps.eps)


@pytest.mark.parametrize("precision", ["mixed", "float64"])
@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
def test_tree_force_error_no_worse_than_recorded(halo, precision, theta):
    ps, direct = halo
    acc = tree_accel(
        ps.pos, ps.mass, ps.eps, theta=theta, mixed_precision=precision == "mixed"
    ).acc
    err = np.linalg.norm(acc - direct, axis=1) / np.linalg.norm(direct, axis=1)
    p50, p99 = np.percentile(err, [50, 99])
    want50, want99 = RECORDED[(precision, theta)]
    assert p50 <= 1.05 * want50
    assert p99 <= 1.05 * want99


def test_energy_drift_within_probe_bound():
    sim = GalaxySimulation(make_mw_mini(N, seed=SEED), dt=2e-3)
    audit = ConservationAudit(include_potential=True)
    audit.record(sim.ps, sim.time)
    sim.run(DRIFT_STEPS)
    audit.record(sim.ps, sim.time)
    drift = abs(audit.energy_change() / audit.history[0].total_energy)
    assert drift <= DRIFT_BOUND
