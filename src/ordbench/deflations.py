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
    MonotoneMap, Poset, PosetError, _arrow, _bits, _failing_pairs, _lines, _require_writable,
)
from .smyth import FinMap, _extend, eta_map, format_antichain, parse_antichain


class QuasiDeflation(FinMap):
    """An antichain-valued endomap with every point above its own value.

    Construction validates both laws (monotonicity, then membership) unless
    ``check=False`` is passed; use :func:`check_quasi_deflation` to examine a
    candidate table without raising.
    """

    def __init__(self, poset: Poset, table, *, check: bool = True):
        super().__init__(poset, poset, table, check=check)

    def _check(self) -> None:
        super()._check()
        strays = self._strays()
        if strays:
            x = strays[0]
            raise PosetError(f"not a quasi-deflation: {x!r} is not above its value {self(x)!r}")

    @property
    def poset(self) -> Poset:
        return self.source

    def _strays(self) -> tuple:
        """The elements not above their own value, in element order."""
        P = self.source
        return tuple(x for x, E, down in zip(P.elements, self._masks, P._down) if not E & down)


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
    mono = tuple(_failing_pairs(P, P, phi._masks, strict_ups))
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
    P, masks = phi.poset, phi._masks
    return QuasiDeflation._from_masks(P, P, tuple(_extend(P, masks, E) for E in masks))


def product_qd(phi: QuasiDeflation, psi: QuasiDeflation) -> QuasiDeflation:
    """The componentwise product assignment on the product poset.

    The value at (x, y) is every pair of a member of phi(x) and a member of
    psi(y), an antichain of the product already. The result is validated.
    """
    prod = phi.poset.product(psi.poset)
    shift = len(psi.poset)
    # row-major: the pair of indices (a, b) is bit a * shift + b
    masks = tuple(
        sum(F << a * shift for a in _bits(E)) for E in phi._masks for F in psi._masks
    )
    chi = QuasiDeflation._from_masks(prod, prod, masks)
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
        psi = QuasiDeflation._from_masks(P, P, eta_map(P)._masks)
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
    fup = [P._up[j] for j in f._idx]
    containment = tuple(x for x, E, up in zip(P.elements, phi._masks, fup) if E & ~up)
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
    for E in c.deflation._masks:
        M |= E
    for x, j, down in zip(P.elements, c.control._idx, P._down):
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
    :class:`QuasiDeflation`.
    """
    table: dict = {}
    control: dict = {}
    for ln, line in _lines(text):
        target = table
        if line.startswith("control:"):
            line, target = line[len("control:"):].strip(), control
        x, rhs = _arrow(ln, line, target, "x -> ...", "element")
        P.index(x)
        target[x] = P._member(rhs) if target is control else parse_antichain(P, rhs)
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
    _require_writable(phi.poset.elements, "quasi-deflation", P=phi.poset)
    for x in phi.poset.elements:
        if str(x).startswith("control:"):
            raise PosetError(f"the quasi-deflation format cannot write the name {str(x)!r}")
    lines = [
        f"{x} -> {format_antichain(E, phi.poset)}"
        for x, E in zip(phi.poset.elements, phi.values)
    ]
    if control is not None:
        lines.extend(
            f"control: {x} -> {y}"
            for x, y in zip(control.source.elements, control.values)
        )
    return "\n".join(lines) + "\n"
