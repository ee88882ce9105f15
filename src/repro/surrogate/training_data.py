"""Training-data generation for the SN surrogate.

The paper: "To prepare training data, we conduct SN explosion simulations
with a gas particle resolution of 1 M_sun, and obtain the gas distributions
just before the explosion and after 0.1 Myr.  As initial conditions, we use
density fields disturbed by turbulent velocity fields that follow v ~ k^-4"
(Sec. 3.3).

Two generators produce (input, target) channel pairs:

* :func:`generate_sedov_pair` — the ambient turbulent box before the SN and
  the exact Sedov–Taylor state 0.1 Myr after; fast enough to build datasets
  of hundreds of pairs in seconds (the default for examples/benchmarks);
* :func:`generate_sph_pair` — the same setup integrated with the *actual*
  SPH code and direct thermal feedback (the paper's procedure, at reduced
  particle count so pure Python remains tractable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.sn.turbulence import make_turbulent_box
from repro.surrogate.model import SedovBlastOracle
from repro.surrogate.transforms import FieldTransform
from repro.surrogate.voxelize import voxelize_particles
from repro.util.constants import SN_ENERGY


@dataclass
class SNTrainingDataset:
    """Paired (input channels, target channels) samples plus metadata."""

    inputs: list[np.ndarray] = field(default_factory=list)
    targets: list[np.ndarray] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.inputs)

    def add(self, x: np.ndarray, y: np.ndarray) -> None:
        if len(self.inputs) and x.shape != self.inputs[0].shape:
            raise ValueError("inconsistent input shape")
        self.inputs.append(np.asarray(x))
        self.targets.append(np.asarray(y))

    def split(self, val_fraction: float, rng: np.random.Generator):
        """(train_dataset, val_dataset) random split."""
        n = len(self)
        perm = rng.permutation(n)
        n_val = int(round(val_fraction * n))
        val, train = perm[:n_val], perm[n_val:]
        mk = lambda idx: SNTrainingDataset(
            inputs=[self.inputs[i] for i in idx],
            targets=[self.targets[i] for i in idx],
            meta=dict(self.meta),
        )
        return mk(train), mk(val)

    def save(self, path: str | Path) -> None:
        payload: dict[str, np.ndarray] = {}
        for i, (x, y) in enumerate(zip(self.inputs, self.targets, strict=True)):
            payload[f"x{i}"] = x
            payload[f"y{i}"] = y
        np.savez_compressed(path, n=np.array(len(self)), **payload)

    @classmethod
    def load(cls, path: str | Path) -> "SNTrainingDataset":
        ds = cls()
        with np.load(path) as data:
            n = int(data["n"])
            for i in range(n):
                ds.add(data[f"x{i}"], data[f"y{i}"])
        return ds


def generate_sedov_pair(
    seed: int,
    n_grid: int = 16,
    side: float = 60.0,
    n_per_side: int = 12,
    mean_density: float = 1.0,
    temperature: float = 100.0,
    mach: float = 5.0,
    t_after: float = 0.1,
    energy: float = SN_ENERGY,
    transform: FieldTransform | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One (input, target) channel pair from the analytic blast oracle.

    Each seed draws an independent turbulent realization, so a dataset is
    simply ``[generate_sedov_pair(s) for s in range(n)]``.
    """
    tf = transform or FieldTransform()
    box = make_turbulent_box(
        n_per_side=n_per_side,
        side=side,
        mean_density=mean_density,
        temperature=temperature,
        mach=mach,
        seed=seed,
    )
    grid_in = voxelize_particles(box, np.zeros(3), side, n_grid)
    oracle = SedovBlastOracle(energy=energy, t_after=t_after)
    grid_out = oracle(grid_in)
    return tf.encode(grid_in.fields), tf.encode_target(grid_out.fields)


def generate_sph_pair(
    seed: int,
    n_grid: int = 16,
    side: float = 60.0,
    n_per_side: int = 10,
    mean_density: float = 1.0,
    temperature: float = 100.0,
    mach: float = 5.0,
    t_after: float = 0.1,
    energy: float = SN_ENERGY,
    transform: FieldTransform | None = None,
    courant: float = 0.2,
    max_steps: int = 2000,
) -> tuple[np.ndarray, np.ndarray]:
    """One (input, target) pair from a real SPH blast integration.

    This is the paper's actual procedure: snapshot the turbulent box,
    inject 1e51 erg thermally at the centre, integrate with the adaptive
    CFL timestep (the *conventional* arm of the step host — exactly the
    computation the surrogate is trained to bypass), and snapshot again at
    ``t_after``.
    """
    # Imported lazily: repro.core depends on this package for the pool nodes.
    from repro.core.integrator import IntegratorConfig
    from repro.core.runner import CoupledRunner
    from repro.physics.feedback import SNFeedback

    tf = transform or FieldTransform()
    box = make_turbulent_box(
        n_per_side=n_per_side,
        side=side,
        mean_density=mean_density,
        temperature=temperature,
        mach=mach,
        seed=seed,
    )
    grid_in = voxelize_particles(box, np.zeros(3), side, n_grid)

    SNFeedback(energy=energy).inject(box, center=np.zeros(3))
    cfg = IntegratorConfig(
        courant=courant,
        self_gravity=False,  # a 0.1 Myr blast: gravity is negligible
        enable_cooling=False,
        enable_star_formation=False,
    )
    sim = CoupledRunner(box, server=None, n_ranks=1, config=cfg)
    sim.run_until(t_after, max_steps=max_steps)
    sim.close()
    grid_out = voxelize_particles(sim.ps, np.zeros(3), side, n_grid)
    return tf.encode(grid_in.fields), tf.encode_target(grid_out.fields)


def build_dataset(
    n_samples: int,
    generator=generate_sedov_pair,
    base_seed: int = 0,
    **kwargs,
) -> SNTrainingDataset:
    """A dataset of ``n_samples`` independent turbulent-box SN pairs."""
    ds = SNTrainingDataset(meta={"generator": generator.__name__, **kwargs})
    for s in range(n_samples):
        x, y = generator(seed=base_seed + s, **kwargs)
        ds.add(x, y)
    return ds
