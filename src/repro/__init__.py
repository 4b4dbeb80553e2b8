"""repro: a Python reproduction of Q2Chemistry (SC 2022).

"Large-Scale Simulation of Quantum Computational Chemistry on a New Sunway
Supercomputer" - an MPS-based VQE simulator combined with Density Matrix
Embedding Theory and a three-level parallelization scheme.

Public entry points:

* :class:`repro.q2chem.Q2Chemistry` - the end-to-end facade;
* :mod:`repro.chem` - integrals, SCF, FCI, CCSD, lattice models;
* :mod:`repro.operators` - fermion/Pauli algebra, JW/BK mappings;
* :mod:`repro.circuits` - UCCSD/brick ansatz, Trotter compilation, fusion;
* :mod:`repro.simulators` - statevector, density-matrix and MPS simulators;
* :mod:`repro.vqe` - energy evaluation, circuit stores, optimizers;
* :mod:`repro.dmet` - bath construction, embedding, chemical potential;
* :mod:`repro.parallel` - fragment executors; Sunway scaling replay.
"""

__version__ = "1.0.0"

from repro.q2chem import Q2Chemistry, binding_energy

__all__ = ["Q2Chemistry", "binding_energy", "__version__"]
