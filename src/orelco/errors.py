"""Exception types shared across the package."""


class OrelcoError(Exception):
    """Base class for all domain errors raised by this package."""


class ArgumentError(ValueError):
    """An argument is outside its range; carries its ``name`` and the
    ``rule`` it breaks, so a caller can refuse it under its own name."""

    def __init__(self, name: str, rule: str):
        super().__init__(f"{name} {rule}")
        self.name = name
        self.rule = rule


class InvalidComplexError(OrelcoError):
    """A combinatorial complex violates one of its structural invariants."""


class _WitnessError(OrelcoError):
    """A map is refused; carries a human-readable witness."""

    def __init__(self, witness: str):
        super().__init__(witness)
        self.witness = witness


class NotMorphismError(_WitnessError):
    """A map fails structure preservation."""


class NotImmersionError(_WitnessError):
    """An operation required an immersion but the map is not one."""


class InvariantError(OrelcoError):
    """A computation breached one of its own hard invariants on valid input."""


class FactorizationError(OrelcoError):
    """Inputs to a factorization do not satisfy its commuting contract."""


class BudgetExhaustedError(OrelcoError):
    """A bounded search ran out of budget before reaching a conclusion."""


class PipelineInvariantError(InvariantError):
    """A hard invariant of the refinement pipeline was breached.

    Carries a state dump, kept in ``dump`` and appended to the message, so
    the breach can be studied offline.
    """

    def __init__(self, message: str, dump: str = ""):
        super().__init__(f"{message}: {dump}" if dump else message)
        self.dump = dump


class DiagramError(InvariantError):
    """A disk diagram reached a configuration the reducer cannot handle."""
