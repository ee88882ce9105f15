"""A resolved supernova blast: SPH simulation vs the exact Sedov solution.

Injects 1e51 erg into a 1 M_sun-resolution turbulent box, integrates it
with the conventional adaptive-timestep scheme (``CoupledRunner`` with no
surrogate server), watching the CFL step collapse — the bottleneck of
Sec. 1 — and compares the shock position against the Sedov-Taylor
similarity solution.

Run:  python examples/sn_blast.py
"""

import numpy as np

from repro.core.integrator import IntegratorConfig
from repro.core.runner import CoupledRunner
from repro.physics.feedback import SNFeedback
from repro.sn.sedov import SedovSolution
from repro.sn.turbulence import make_turbulent_box
from repro.util.constants import SN_ENERGY, internal_energy_to_temperature


def shock_radius_estimate(ps) -> float:
    """Radius of the fastest-moving mass shell (a simple shock proxy)."""
    gas = ps.where_type(2)
    r = np.linalg.norm(ps.pos[gas], axis=1)
    vr = np.einsum("ij,ij->i", ps.vel[gas], ps.pos[gas]) / np.maximum(r, 1e-12)
    moving = vr > 0.3 * vr.max()
    return float(np.median(r[moving])) if moving.any() else 0.0


def main() -> None:
    rho0 = 1.0  # M_sun/pc^3 ~ 30 H/cm^3: a star-forming clump
    box = make_turbulent_box(n_per_side=12, side=12.0, mean_density=rho0,
                             particle_mass=1.0, temperature=100.0,
                             mach=2.0, seed=3)
    print(f"box: {len(box)} x 1 M_sun particles at rho = {rho0} M_sun/pc^3")

    n_heated = SNFeedback().inject(box, center=np.zeros(3))
    print(f"SN injected: 1e51 erg over {n_heated} particles, "
          f"T_max = {internal_energy_to_temperature(box.u).max():.2e} K")

    cfg = IntegratorConfig(dt=2e-3, courant=0.15, self_gravity=False,
                           enable_cooling=False, enable_star_formation=False)
    sim = CoupledRunner(box, server=None, n_ranks=1, config=cfg)
    sedov = SedovSolution(energy=SN_ENERGY, rho0=rho0)

    t_report = [0.002, 0.004, 0.006]
    dts = []
    print("\n   t [kyr]   dt [yr]   R_sph [pc]   R_sedov [pc]")
    for t_end in t_report:
        while sim.time < t_end:
            dts.append(sim.step())
        r_sph = shock_radius_estimate(sim.ps)
        r_sedov = sedov.shock_radius(sim.time)
        print(f"   {sim.time * 1e3:7.2f}   {dts[-1] * 1e6:7.1f}"
              f"   {r_sph:9.2f}   {r_sedov:10.2f}")
    sim.close()

    print(f"\nsteps taken: {sim.step_count} "
          f"(smallest dt: {min(dts) * 1e6:.0f} yr — this collapse "
          f"is exactly what the surrogate scheme bypasses)")


if __name__ == "__main__":
    main()
