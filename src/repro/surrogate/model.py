"""The end-to-end SN surrogate: particles in, predicted particles out.

:class:`SNSurrogate` is what a pool node runs (Fig. 3): voxelize the
received (60 pc)^3 region, encode to 8 channels, predict the state 0.1 Myr
after the explosion, decode, and Gibbs-sample the result back into exactly
as many particles as came in.

The predictor is pluggable:

* a trained :class:`~repro.ml.serialize.InferenceEngine` / ``UNet3D``
  (the paper's path) — build the engine with ``InferenceEngine.load`` so
  it remembers its export path and the surrogate gains a derivable
  ``kind="model"`` :class:`~repro.serve.SurrogateSpec` (a checkpoint then
  names the export instead of holding the weights), or
* :class:`SedovBlastOracle` — the exact Sedov–Taylor field update, which is
  the physics the U-Net learns; it lets the full coupled scheme run and be
  validated without a lengthy training phase, and it provides the training
  labels in :mod:`repro.surrogate.training_data`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fdps.particles import ParticleSet
from repro.sn.sedov import SedovSolution
from repro.surrogate.devoxelize import devoxelize_to_particles
from repro.surrogate.transforms import FieldTransform
from repro.surrogate.voxelize import VoxelGrid, voxelize_particles
from repro.util.constants import SN_ENERGY, internal_energy_to_temperature


@dataclass
class SedovBlastOracle:
    """Analytic field-space SN update: ambient fields -> blast fields.

    Inside the shock radius at ``t_after`` the Sedov profile (scaled to the
    mean ambient density of the input region) replaces density and
    temperature and adds the radial blast velocity; outside, the input
    fields pass through untouched.
    """

    energy: float = SN_ENERGY
    t_after: float = 0.1  # Myr — the paper's prediction horizon
    t_floor: float = 10.0

    def __call__(self, grid: VoxelGrid) -> VoxelGrid:
        rho_in = grid.field("density")
        rho0 = float(np.mean(rho_in))
        rho0 = max(rho0, 1e-10)
        sol = SedovSolution(energy=self.energy, rho0=rho0)
        r = grid.voxel_radii()
        dens_b, vrad_b, u_b = sol.evaluate(r.ravel(), self.t_after)
        dens_b = dens_b.reshape(r.shape)
        vrad_b = vrad_b.reshape(r.shape)
        u_b = u_b.reshape(r.shape)
        inside = r <= sol.shock_radius(self.t_after)

        out = grid.fields.copy()
        out[0] = np.where(inside, np.maximum(dens_b, 1e-12), rho_in)
        t_blast = np.maximum(
            internal_energy_to_temperature(np.maximum(u_b, 1e-12)), self.t_floor
        )
        out[1] = np.where(inside, t_blast, grid.field("temperature"))
        g = grid.voxel_centers_1d()
        xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
        rs = np.maximum(r, 1e-12)
        for c, comp in enumerate((xx, yy, zz)):
            out[2 + c] = np.where(
                inside, grid.fields[2 + c] + vrad_b * comp / rs, grid.fields[2 + c]
            )
        return VoxelGrid(fields=out, center=grid.center, side=grid.side)


@dataclass
class SNSurrogate:
    """Pool-node predictor: region particles -> particles 0.1 Myr later.

    Parameters
    ----------
    predictor : a callable (8, n, n, n) -> (5, n, n, n) in *transformed*
        space (a UNet3D, an InferenceEngine, ...), or None when using
        ``oracle``.
    oracle : a field-space callable VoxelGrid -> VoxelGrid (e.g.
        :class:`SedovBlastOracle`).  Exactly one of predictor/oracle must be
        set.
    n_grid / side : the voxelization (paper: 64 and 60 pc).
    """

    predictor: object | None = None
    oracle: object | None = None
    n_grid: int = 64
    side: float = 60.0
    transform: FieldTransform = field(default_factory=FieldTransform)
    gibbs_sweeps: int = 8

    def __post_init__(self) -> None:
        if (self.predictor is None) == (self.oracle is None):
            raise ValueError("provide exactly one of predictor or oracle")

    # ------------------------------------------------------------- field path
    def predict_fields(self, grid: VoxelGrid) -> VoxelGrid:
        """Field-space prediction (both branches used by the benchmarks)."""
        if self.oracle is not None:
            return self.oracle(grid)
        chans = self.transform.encode(grid.fields)
        raw = self.predictor(chans)  # type: ignore[operator]
        fields = self.transform.decode_target(np.asarray(raw))
        return VoxelGrid(fields=fields, center=grid.center, side=grid.side)

    def predict_fields_batch(self, grids: list[VoxelGrid]) -> list[VoxelGrid]:
        """Field-space prediction for a coalesced batch of regions.

        The U-Net path stacks the encoded channels into one
        ``(B, 8, n, n, n)`` tensor and runs a single batched forward pass
        (``predict_batch`` / ``forward_batch`` on the predictor, falling
        back to a per-sample loop for plain callables).  The oracle path is
        elementwise per grid, so it simply loops.
        """
        if not grids:
            return []
        if self.oracle is not None:
            return [self.oracle(g) for g in grids]
        chans = np.stack([self.transform.encode(g.fields) for g in grids])
        if hasattr(self.predictor, "predict_batch"):
            raw = self.predictor.predict_batch(chans)
        elif hasattr(self.predictor, "forward_batch"):
            raw = self.predictor.forward_batch(chans)
        else:
            raw = np.stack([self.predictor(c) for c in chans])  # type: ignore[operator]
        return [
            VoxelGrid(
                fields=self.transform.decode_target(r), center=g.center, side=g.side
            )
            for r, g in zip(np.asarray(raw), grids, strict=True)
        ]

    # ---------------------------------------------------------- particle path
    def predict_particles(
        self,
        region: ParticleSet,
        center: np.ndarray,
        rng: np.random.Generator,
    ) -> ParticleSet:
        """Full pool-node pipeline on one SN region.

        The returned set has the same particle count, IDs and masses as the
        input (mass conservation by construction); positions, velocities and
        internal energies carry the predicted post-SN state.
        """
        if len(region) == 0:
            return region.copy()
        grid_in = voxelize_particles(region, center, self.side, self.n_grid)
        grid_out = self.predict_fields(grid_in)
        return devoxelize_to_particles(
            grid_out, region, rng, n_sweeps=self.gibbs_sweeps
        )

    def predict_batch(
        self,
        regions: list[ParticleSet],
        centers: list[np.ndarray],
        rngs: list[np.random.Generator],
    ) -> list[ParticleSet]:
        """Batched pool-node pipeline over coalesced SN regions.

        Voxelization and the Gibbs devoxelization are independent per
        region; the predictor forward pass is shared through
        :meth:`predict_fields_batch`.  Each region draws from its *own*
        generator (per-event seeding, see :func:`repro.serve.wire
        .event_rng`), so the output for a region is identical whether it is
        predicted alone, in any batch, or in any order — empty regions pass
        through untouched, exactly as in :meth:`predict_particles`.
        """
        if not (len(regions) == len(centers) == len(rngs)):
            raise ValueError("regions, centers and rngs must have equal length")
        out: list[ParticleSet | None] = [None] * len(regions)
        live = [i for i, r in enumerate(regions) if len(r) > 0]
        grids = [
            voxelize_particles(regions[i], centers[i], self.side, self.n_grid)
            for i in live
        ]
        for i, grid_out in zip(live, self.predict_fields_batch(grids), strict=True):
            out[i] = devoxelize_to_particles(
                grid_out, regions[i], rngs[i], n_sweeps=self.gibbs_sweeps
            )
        for i, r in enumerate(regions):
            if out[i] is None:
                out[i] = r.copy()
        return out  # type: ignore[return-value]
