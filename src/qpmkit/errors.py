"""Exception hierarchy and the report types used by the validators."""

from __future__ import annotations

from dataclasses import dataclass, field


class QpmkitError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(QpmkitError):
    """Operands have incompatible shapes or dimensions."""


class ValidationError(QpmkitError):
    """An input value violates a structural invariant."""


class NumericError(QpmkitError):
    """A numerical routine failed to produce a usable result."""


class NonFiniteError(NumericError, ValueError):
    """Data or a result holds an infinity or a NaN; a ``ValueError`` as numpy's own refusal is."""


class AlphabetError(QpmkitError):
    """A symbol does not belong to the relevant alphabet."""


class SubspaceError(QpmkitError):
    """A matrix does not lie in the operator subspace it was expanded over."""


class DegenerateSupportError(QpmkitError):
    """The Hankel row space cannot be spanned by rows of positive weight."""


class BasisInsufficiencyError(QpmkitError):
    """The selected row basis does not reproduce the shifted rows."""


class SamplingError(QpmkitError):
    """A branch probability is too negative to clamp during sampling."""


class DivergenceError(QpmkitError):
    """Iterates grow without bound; no averaged limit exists."""


class ConsistencyError(QpmkitError):
    """Two redundant computations of the same quantity disagree."""


class UnsupportedChainError(QpmkitError):
    """The chain does not support the requested hidden-state operation."""


class SchemaError(QpmkitError):
    """A model file failed to parse or validate."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class UsageError(QpmkitError):
    """Bad command line invocation."""


@dataclass(frozen=True)
class Violation:
    """One violated invariant, with enough context to locate it."""

    code: str
    message: str
    where: tuple = ()

    def __str__(self) -> str:
        loc = f" at {self.where}" if self.where else ""
        return f"{self.code}{loc}: {self.message}"


@dataclass
class ValidationReport:
    """Outcome of a report-based validator.

    ``violations`` hold hard failures; ``evidence`` holds informational
    notes (e.g. probabilistic positivity checks that found no
    counterexample but prove nothing).
    """

    violations: list[Violation] = field(default_factory=list)
    evidence: list[str] = field(default_factory=list)
    horizon: int | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str, where: tuple = ()) -> None:
        self.violations.append(Violation(code, message, where))

    def note(self, message: str) -> None:
        self.evidence.append(message)

    def messages(self) -> list[str]:
        return [str(v) for v in self.violations]

    def raise_if_invalid(self, context: str = "validation failed"):
        if not self.ok:
            raise ValidationError(f"{context}: " + "; ".join(self.messages()))
        return self
