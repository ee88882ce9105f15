"""End to end: train the U-Net, then run a galaxy with it — the full system.

This is the complete ASURA-FDPS-ML loop of the paper in one script:

1. train the 3D U-Net surrogate on Sedov-in-turbulence pairs and export
   it with ``save_model`` (the CPU deployment artifact of Sec. 3.3);
2. build a gas-rich dwarf galaxy with a massive star about to explode;
3. integrate with the fixed 2,000-yr global timestep; when the star goes
   off, its (60 pc)^3 region is shipped to a pool node, the *trained
   network* — reloaded from the export via ``surrogate_model_path`` —
   predicts the post-SN state, and the particles come back by ID.

Run:  python examples/galaxy_with_trained_surrogate.py
"""


import tempfile
from pathlib import Path

from repro.core.simulation import GalaxySimulation
from repro.core.integrator import IntegratorConfig
from repro.fdps.particles import ParticleSet, ParticleType
from repro.ml.serialize import save_model
from repro.ml.train import train_model
from repro.ml.unet import UNet3D
from repro.sn.turbulence import make_turbulent_box
from repro.surrogate.training_data import build_dataset
from repro.util.constants import internal_energy_to_temperature


def main() -> None:
    # --- 1. train and export ---------------------------------------------------
    print("training the surrogate (12 pairs, 8^3 grid) ...")
    ds = build_dataset(12, base_seed=0, n_grid=8, n_per_side=10)
    net = UNet3D(in_channels=8, out_channels=5, base_channels=4, depth=1, seed=0)
    hist = train_model(net, ds.inputs, ds.targets, epochs=30, lr=2e-3,
                       val_fraction=0.25, seed=0)
    print(f"  val loss {hist.val[0]:.3f} -> {hist.best_val:.3f}")
    deploy_dir = tempfile.mkdtemp(prefix="galaxy_surrogate_")
    export = save_model(net, Path(deploy_dir) / "galaxy_surrogate")
    print(f"  exported to {export}")

    # --- 2. a dwarf with a doomed star ----------------------------------------
    box = make_turbulent_box(n_per_side=10, side=60.0, mean_density=0.3,
                             temperature=200.0, mach=3.0, seed=5)
    star = ParticleSet.empty(1)
    star.mass[:] = 25.0
    star.ptype[:] = int(ParticleType.STAR)
    star.pid[:] = 999_999
    star.tsn[:] = 0.003          # explodes on step 2
    star.eps[:] = 1.0
    ps = box.append(star)

    # --- 3. integrate with the trained, exported surrogate ---------------------
    # 4 pool nodes, so each prediction lands 4 steps after its dispatch.
    cfg = IntegratorConfig(dt=2e-3, n_pool=4, seed=0,
                           enable_star_formation=False, self_gravity=False)
    sim = GalaxySimulation(ps, surrogate_model_path=export, surrogate_grid=8,
                           config=cfg)

    for _ in range(8):
        sim.run(1)
        gas = sim.ps.where_type(ParticleType.GAS)
        t_max = internal_energy_to_temperature(sim.ps.u[gas]).max()
        d = sim.diagnostics()
        print(f"step {d['step']}: SNe {d['n_sn_events']}, "
              f"in flight {d['pool']['n_in_flight']}, T_max = {t_max:9.2e} K")

    returned = sim.pool.summary()["n_returned"]
    print(f"\npredictions returned: {returned}; "
          f"particle count conserved: {len(sim.ps) == len(ps)}")


if __name__ == "__main__":
    main()
