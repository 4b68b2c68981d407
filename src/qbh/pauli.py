"""Generalized Pauli operators on N qudits of dimension q = p^r.

An operator is kept in the normal form z^c X(a) Z(b) with a, b in F_q^N,
where X(a)|x> = |x + a> and Z(b)|x> = omega^tr(b.x) |x> for the absolute
trace tr down to F_p and omega = e^(2 pi i/p).  The phase is a power of
z = e^(2 pi i/M), with M = ``phase_modulus``: M = p, so z = omega, except
at p = 2, where the group needs the imaginary unit and M = 4.  With
step = M / p, omega = z^step, so reordering contributes
step * tr(b . a') because Z(b) X(a') = omega^tr(b.a') X(a') Z(b).

``psi`` drops the phase: it returns the phase-0 element X(a) Z(b), the
symplectic pair (a | b).  Products and pairings, which need field
arithmetic, belong to the symplectic oracle, ``construct``.
"""

from __future__ import annotations

from .errors import LengthMismatch
from .gf import Field, _check_entries


def phase_modulus(field: Field) -> int:
    """Order of the phase subgroup: 4 for characteristic 2, else p."""
    return 4 if field.p == 2 else field.p


def phase_step(field: Field) -> int:
    """M / p: omega = z^step for z = e^(2 pi i/M), M = phase_modulus."""
    return phase_modulus(field) // field.p


class PauliElement:
    """z^phase X(a) Z(b) in normal form; an entry of a or b that is not a
    packed element of the field is refused with ValueError.

    ``_packed`` is None until the state oracle first acts with the
    element (``statevec.apply``, ``is_fixed`` or ``fix_dim``); it then
    holds the element's whole form for ``statevec._act``: the phase, the
    lane-packed a, the trace row of b and its trace form, and the work
    for the last basis and offset acted on.  Equality, hashing and
    ``repr`` ignore it, and every constructor starts it empty.
    """

    __slots__ = ("field", "phase", "a", "b", "_packed")

    def __init__(self, field: Field, phase: int, a, b):
        a, b = tuple(a), tuple(b)
        if len(a) != len(b):
            raise LengthMismatch("X part and Z part must have equal length")
        _check_entries(field, a + b)
        self.field = field
        self.phase = phase % phase_modulus(field)
        self.a = a
        self.b = b
        self._packed = None

    @property
    def length(self) -> int:
        return len(self.a)

    def __eq__(self, other):
        return (
            isinstance(other, PauliElement)
            and self.field == other.field
            and self.phase == other.phase
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.field, self.phase, self.a, self.b))

    def __repr__(self):
        return f"w^{self.phase} X({','.join(map(str, self.a))}) Z({','.join(map(str, self.b))})"


def identity(field: Field, n: int) -> PauliElement:
    return PauliElement(field, 0, (0,) * n, (0,) * n)


def x_op(field: Field, a) -> PauliElement:
    return PauliElement(field, 0, a, (0,) * len(a))


def z_op(field: Field, b) -> PauliElement:
    return PauliElement(field, 0, (0,) * len(b), b)


def psi(e: PauliElement) -> PauliElement:
    """Forget the phase: the symplectic image (a | b), as X(a) Z(b)."""
    return PauliElement(e.field, 0, e.a, e.b)


def swt(v) -> int:
    """Symplectic weight of a PauliElement or an (a, b) pair: positions
    where the (a_i, b_i) pair is nonzero."""
    if isinstance(v, PauliElement):
        a, b = v.a, v.b
    else:
        a, b = v
    return sum(1 for x, y in zip(a, b) if x or y)
