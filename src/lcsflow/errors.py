"""The base class of lcsflow's domain errors."""


class DomainError(Exception):
    """A hypothesis of the mathematics fails on valid input: the Lee class
    drifts, an obstruction survives, a form degenerates.  Every such error
    derives from this class and keeps its ValueError or ArithmeticError
    base; the runner reports it as a failed verdict (exit 1)."""
