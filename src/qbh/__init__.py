"""Stabilizer codes from classical codes through Butson-Hadamard matrices.

The pipeline: ``gf`` gives exact finite-field towers, ``lincode``
classical codes, ``functional`` the scalar-indexed functional family
and its theta lifts, ``bh`` the matrix side, ``pauli`` the symplectic
error formalism, ``construct`` the stabilizer assembly, and ``statevec``
exact state-level oracles that re-verify everything at desk scale, on
the slot arrays of ``slots``.
"""

from .bh import (
    BhMatrix,
    BilinearForm,
    bh_from_text,
    bh_to_text,
    bh_verify,
    form_matrix,
    kron_fourier,
    linear_rows_check,
    normalize,
    row_equivalence,
)
from .construct import (
    StabilizerCode,
    build,
    centralizer_basis,
    distance,
    distance_bruteforce,
    ell,
    stab_from_text,
    stab_to_text,
)
from .errors import (
    BudgetExceeded,
    DegenerateD,
    DegenerateForm,
    DimensionBounds,
    DimensionMismatch,
    LabelsNotGroup,
    LengthMismatch,
    NoEmbedding,
    NotACodeword,
    NotBh,
    NotPrime,
    QbhError,
    ReducibleModulus,
    ZeroCode,
)
from .functional import (
    FunctionalTable,
    big_f_kernel,
    f_eval,
    project_zero_coordinates,
    table_make,
    table_matrix,
    validate_d,
)
from .gf import Field, FieldElement, field_make
from .lincode import (
    LinearCode,
    code_from_text,
    code_make,
    code_to_text,
    dual,
    encode,
    min_distance,
    weight,
)
from .pauli import (
    PauliElement,
    SymplecticVector,
    commutes,
    detectable,
    identity,
    mul,
    psi,
    swt,
    symp_ip,
    x_op,
    z_op,
)
from .statevec import (
    CycAmp,
    StateVector,
    apply,
    big_phi,
    big_phi_from_matrix,
    equal_sum_states,
    fix_dim,
    inner,
    is_fixed,
    phi,
    phi_from_matrix,
    span_equal,
    stab_of_span,
    tensor,
)

__version__ = "0.1.0"
