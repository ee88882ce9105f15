"""A Python re-implementation of the FDPS particle-simulator framework.

FDPS (Framework for Developing Particle Simulators, Iwasawa et al.) factors a
massively parallel particle code into five reusable services, all of which
this package provides:

* **particle containers** — :mod:`repro.fdps.particles` (structure-of-arrays
  storage, the layout PIKG-generated kernels expect);
* **domain decomposition** — :mod:`repro.fdps.domain` (multisection with
  weighted sampling, the scheme whose thin central domains appear in Fig. 4);
* **particle exchange & communication** — :mod:`repro.fdps.comm` (a simulated
  MPI with alltoallv, point-to-point messages — the main/pool split of
  Sec. 3.1 is the pool's own ``SimComm`` world — and the 3D-torus
  three-phase alltoallv of Sec. 3.4 whose time complexity is O(p^{1/3}));
* **tree construction** — :mod:`repro.fdps.tree` (Morton-ordered Barnes–Hut
  octree with monopole moments);
* **local essential tree (LET) exchange and interaction calculation** —
  :mod:`repro.fdps.let` and :mod:`repro.fdps.interaction` (group-wise tree
  walks with the interaction-group size ``n_g`` trade-off of Sec. 5.2.4).

Coupled runs and cross-rank SN regions
--------------------------------------

:class:`DistributedGravity` is also the communication driver of the
surrogate-coupled step host
(:class:`~repro.core.runner.CoupledRunner`).  Beyond migration and
LET traffic it exports SN-region *ghosts*: when a supernova's sampling
cube pokes past its owner rank's domain box
(:meth:`~repro.fdps.domain.DomainDecomposition.domain_box`), the owner
cannot extract a complete region —
:func:`repro.surrogate.voxelize.extract_region` raises
``RegionIncompleteError`` rather than silently truncating.
:meth:`DistributedGravity.exchange_region_ghosts` is the remedy: one
collective (label ``region_ghost``, flat or 3-phase torus alltoallv, span
``Exchange_Region``) in which every non-owner rank packs its in-cube gas
through the :mod:`repro.fdps.particles` wire format and the owner merges
the blocks back into a pid-sorted region identical to a single-rank
extraction.  ``tests/core/test_coupled.py`` pins the resulting byte
ledgers; ``benchmarks/bench_coupled_scaling.py`` prices them on the
Sec. 5.2 network model.
"""

from repro.fdps.particles import ParticleSet, ParticleType
from repro.fdps.morton import morton_encode, morton_decode, morton_keys
from repro.fdps.tree import Octree
from repro.fdps.domain import DomainDecomposition, multisection_bounds
from repro.fdps.comm import SimComm, CommStats, TorusTopology
from repro.fdps.let import build_let_exports, exchange_let
from repro.fdps.interaction import InteractionCounter
from repro.fdps.distributed import DistributedGravity
from repro.fdps.io import save_snapshot, load_snapshot

__all__ = [
    "ParticleSet",
    "ParticleType",
    "morton_encode",
    "morton_decode",
    "morton_keys",
    "Octree",
    "DomainDecomposition",
    "multisection_bounds",
    "SimComm",
    "CommStats",
    "TorusTopology",
    "build_let_exports",
    "exchange_let",
    "InteractionCounter",
    "DistributedGravity",
    "save_snapshot",
    "load_snapshot",
]
