"""Stabilizer codes from classical codes through Butson-Hadamard matrices.

The pipeline: ``gf`` gives exact finite-field towers, ``lincode``
classical codes, ``functional`` the scalar-indexed functional family
and its theta lifts, ``bh`` the matrix side, ``pauli`` the Pauli element
type, ``construct`` the stabilizer assembly and the symplectic oracle,
and ``statevec`` exact state-level oracles that re-verify everything at
desk scale, on the slot arrays of ``slots``.

Names are imported from their modules, as in ``from qbh.gf import field_make``.
"""

__version__ = "0.1.0"
