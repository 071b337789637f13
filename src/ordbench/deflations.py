"""Quasi-deflations and their controlled variant.

A quasi-deflation assigns to each point an antichain that the point sits
above, monotonically with respect to refinement. These are the set-valued
cousins of finite-image idempotent shrinking maps, and on finite posets the
unit (point to singleton) is always one. The controlled variant pairs the
assignment with an ordinary monotone endomap that bounds it from below, and
yields a finite separating set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from .posets import (
    MonotoneMap, Poset, PosetError, _arrows, _bits, _failing_pairs, _lines, _write_arrows,
)
from .smyth import FinMap, _extend, eta_map, format_antichain, parse_antichain


class QuasiDeflation(FinMap):
    """An antichain-valued endomap with every point above its own value.

    A :class:`~ordbench.smyth.FinMap` from ``poset`` to itself, with its
    cells, calls, ``values`` and equality: it equals the ``FinMap`` with the
    same poset and cells. Construction validates both laws (monotonicity,
    then membership) unless ``check=False`` is passed; use
    :func:`check_quasi_deflation` to examine a candidate table without
    raising.
    """

    poset = property(lambda self: self.source)

    def __init__(self, poset: Poset, table, *, check: bool = True):
        super().__init__(poset, poset, table, check=check)

    def _check(self) -> None:
        super()._check()
        strays = self._strays()
        if strays:
            x = strays[0]
            raise PosetError(f"not a quasi-deflation: {x!r} is not above its value {self(x)!r}")

    def _strays(self) -> tuple:
        """The elements not above their own value, in element order."""
        P = self.source
        return tuple(x for x, E, down in zip(P.elements, self._cells, P._down) if not E & down)


@dataclass(frozen=True)
class QuasiDeflationReport:
    valid: bool
    membership_violations: Tuple = ()
    monotonicity_violations: Tuple = ()


def check_quasi_deflation(P: Poset, table) -> QuasiDeflationReport:
    """Validate a candidate table; collects violations instead of raising.

    Membership violations are elements not above their assigned antichain;
    monotonicity violations are pairs x <= y whose antichains fail to refine.
    """
    phi = QuasiDeflation(P, table, check=False)
    membership = phi._strays()
    strict_ups = [up & ~(1 << i) for i, up in enumerate(P._up)]
    mono = tuple(_failing_pairs(P, P, phi._cells, strict_ups))
    return QuasiDeflationReport(
        valid=not membership and not mono,
        membership_violations=membership,
        monotonicity_violations=mono,
    )


def qd_self_compose(phi: QuasiDeflation) -> QuasiDeflation:
    """Extend phi to antichains and apply it to its own values.

    For a law-abiding input the result is again a quasi-deflation; the
    construction itself is pure antichain arithmetic and is not re-validated,
    so it can also be used to see what self-composition does to a broken
    candidate (run :func:`check_quasi_deflation` on the output if it matters).
    """
    P, masks = phi.poset, phi._cells
    return QuasiDeflation._of(P, P, tuple(_extend(P, masks, E) for E in masks))


def product_qd(phi: QuasiDeflation, psi: QuasiDeflation) -> QuasiDeflation:
    """The componentwise product assignment on the product poset.

    The value at (x, y) is every pair of a member of phi(x) and a member of
    psi(y), an antichain of the product already. The result is validated.
    """
    prod = phi.poset.product(psi.poset)
    shift = len(psi.poset)
    # row-major: the pair of indices (a, b) is bit a * shift + b
    masks = tuple(
        sum(F << a * shift for a in _bits(E)) for E in phi._cells for F in psi._cells
    )
    chi = QuasiDeflation._of(prod, prod, masks)
    chi._check()
    return chi


def qfs_separator(
    P: Poset,
    pairs: Iterable[Tuple[Iterable, object]],
    candidates: Optional[Iterable[QuasiDeflation]] = None,
) -> QuasiDeflation:
    """Find a quasi-deflation separating antichain/point pairs.

    Each pair (E, x) must satisfy x above E; the returned assignment psi
    satisfies, for every pair, that E refines psi(x) and x is above psi(x).
    On a finite poset the unit always separates and is returned when no
    candidate family is supplied. With ``candidates``, the first member that
    separates every pair is returned (useful for truncations of the lazily
    presented posets, whose interesting families are indexed).
    """
    checked = []  # (up-mask of E, x, the mask of the elements below x)
    for E, x in pairs:
        E = P._minimal(P._mask_of(E))
        below = P._down[P.index(x)]
        if not E & below:
            raise PosetError(
                f"pair ({P._tuple_of(E)!r}, {x!r}) invalid: point not above the antichain"
            )
        checked.append((P._up_mask(E), x, below))

    def separates(psi: QuasiDeflation) -> bool:
        # a candidate's values are read by name, as for any map handed in
        return all(
            not v & ~up and v & below
            for up, x, below in checked
            for v in [P._mask_of(psi(x))]
        )

    if candidates is None:
        psi = QuasiDeflation._of(P, P, eta_map(P)._cells)
        assert separates(psi)
        return psi
    for psi in candidates:
        if separates(psi):
            return psi
    raise PosetError("no candidate separates all the pairs")


@dataclass(frozen=True)
class ControlledQuasiDeflation:
    """A quasi-deflation bounded below by a monotone endomap.

    The control f and the assignment phi live on the same poset and must
    satisfy: the closure of phi(x) is contained in the filter of f(x). When
    used to produce separating sets, f is additionally below the identity.
    """

    control: MonotoneMap
    deflation: QuasiDeflation


@dataclass(frozen=True)
class ControlledReport:
    valid: bool
    containment_violations: Tuple = ()
    deflating_violations: Tuple = ()


def check_controlled(
    c: ControlledQuasiDeflation, *, require_deflating: bool = False
) -> ControlledReport:
    """Verify the containment law, optionally also that the control shrinks."""
    P = c.deflation.poset
    f, phi = c.control, c.deflation
    if f.source != P or f.target != P:
        raise PosetError("control must be an endomap of the deflation's poset")
    fup = [P._up[j] for j in f._cells]
    containment = tuple(x for x, E, up in zip(P.elements, phi._cells, fup) if E & ~up)
    deflating: Tuple = ()
    if require_deflating:
        deflating = tuple(x for i, (x, up) in enumerate(zip(P.elements, fup)) if not up >> i & 1)
    return ControlledReport(
        valid=not containment and not deflating,
        containment_violations=containment,
        deflating_violations=deflating,
    )


def separating_set_from_controlled(c: ControlledQuasiDeflation) -> Tuple:
    """Collect the image members of the assignment into a separating set.

    For a valid pair with shrinking control, the union M of all antichain
    members satisfies: every x admits m in M with f(x) <= m <= x. The
    postcondition is verified before returning; failure means the input was
    not a valid controlled pair.
    """
    report = check_controlled(c, require_deflating=True)
    if not report.valid:
        raise PosetError(f"invalid controlled pair: {report}")
    P = c.deflation.poset
    M = 0
    for E in c.deflation._cells:
        M |= E
    for x, j, down in zip(P.elements, c.control._cells, P._down):
        if not M & P._up[j] & down:
            raise PosetError(
                f"separation postcondition failed at {x!r}; input pair is inconsistent"
            )
    return P._tuple_of(M)


# -- serialization --------------------------------------------------------------


def parse_quasi_deflation(P: Poset, text: str, *, check: bool = True):
    """Read a quasi-deflation from ``x -> {y1, y2}`` lines.

    Lines of the form ``control: x -> y`` add a monotone control map; when
    any are present the result is a :class:`ControlledQuasiDeflation` (and
    the control must then be total), otherwise a plain
    :class:`QuasiDeflation`. Both kinds of line are read by
    :func:`~ordbench.posets._arrows`, the plain lines first: of two faulty
    lines, the first plain one is named before any control line.
    """
    lines = list(_lines(text))
    plain = [(ln, s) for ln, s in lines if not s.startswith("control:")]
    tagged = [(ln, s.partition(":")[2].strip()) for ln, s in lines if s.startswith("control:")]
    table = _arrows(plain, P, "x -> ...", lambda rhs: parse_antichain(P, rhs), "element")
    control = _arrows(tagged, P, "x -> ...", P._member, "element")
    phi = QuasiDeflation(P, table, check=check)
    if not control:
        return phi
    return ControlledQuasiDeflation(MonotoneMap(P, P, control), phi)


def format_quasi_deflation(obj) -> str:
    """Inverse of :func:`parse_quasi_deflation` for either variant.

    Raises PosetError on a name it cannot read back (see
    :func:`~ordbench.posets._require_writable`), and on an element whose
    name begins with ``control:``, which would read back as a control line.
    """
    if isinstance(obj, ControlledQuasiDeflation):
        phi, control = obj.deflation, obj.control
    else:
        phi, control = obj, None
    P = phi.poset

    def rhs() -> list:
        for x in P.elements:
            if str(x).startswith("control:"):
                raise PosetError(f"the quasi-deflation format cannot write the name {str(x)!r}")
        return [format_antichain(E, P) for E in phi.values]

    text = _write_arrows(P, rhs, "quasi-deflation")
    if control is not None:
        text += "".join(f"control: {x} -> {y}\n"
                        for x, y in zip(control.source.elements, control.values))
    return text
