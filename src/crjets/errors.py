"""Exception hierarchy.

Three families matter to callers and to the CLI exit-code mapping:
parse problems (bad files), precondition violations (valid data that a
given operation rejects), and invariant violations (internal identities
that should hold by construction and did not).

Invariants are checked by certify. It appends (stage, identity, holds)
to the record that recording opened in the current context, if any, and
its InvariantError names the stage and the identity that failed.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator


class CRJetsError(Exception):
    """Base class for all package errors."""


class ParseError(CRJetsError):
    """Input file or literal could not be decoded."""


class PreconditionError(CRJetsError):
    """Input is well formed but outside the operation's domain."""


class AlphabetMismatchError(PreconditionError):
    """Operands live over different variable alphabets."""


class OrderMismatchError(PreconditionError):
    """Operands carry different truncation orders; truncate explicitly."""


class NotDivisibleError(PreconditionError):
    """Exact coordinate division requested on a jet with terms lacking the factor."""

    # The message carries the offending monomial; see Jet.divide_by_coordinate.


class NonUnitConstantError(PreconditionError):
    """Operation needs a specific constant term (unit, or exactly 1)."""


class SingularJacobianError(PreconditionError):
    """Implicit solve rejected: linearization at the origin is not invertible."""


class DegenerateFormError(PreconditionError):
    """A form that must be nondegenerate (Levi form, t-Hessian) is singular."""


class InvariantError(CRJetsError):
    """An internal identity failed; indicates a bug, not bad input."""


_record: ContextVar[list[tuple[str, str, bool]] | None] = ContextVar("record", default=None)


def certify(holds: bool, stage: str, identity: str, message: str) -> None:
    """Append (stage, identity, holds) to the open record, if any, and
    raise InvariantError("<stage>: <identity>: <message>") unless the
    identity holds."""
    record = _record.get()
    if record is not None:
        record.append((stage, identity, holds))
    if not holds:
        raise InvariantError(f"{stage}: {identity}: {message}")


@contextmanager
def recording() -> Iterator[list[tuple[str, str, bool]]]:
    """Record the certificates run inside the block; the outer record, if
    any, is restored on exit."""
    record: list[tuple[str, str, bool]] = []
    token = _record.set(record)
    try:
        yield record
    finally:
        _record.reset(token)


def held(identity: str) -> bool:
    """Every entry of this identity in the open record held (vacuously if none ran)."""
    return all(ok for _, name, ok in _record.get() if name == identity)  # type: ignore[union-attr]
