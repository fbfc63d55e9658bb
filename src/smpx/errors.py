"""Exception types shared across the library.

The CLI maps these onto process exit codes (config 2, numerical 3), so
library code should raise the most specific class that applies.
"""


class SmpxError(Exception):
    """Base class for all library errors.

    ``row``, when set, is the row of a stacked call that the error concerns:
    a seed's place in a lock-step batch of the solver.
    """

    def __init__(self, *args, row=None):
        super().__init__(*args)
        self.row = row


class ConfigError(SmpxError):
    """Invalid configuration: bad sizes, unknown kinds, infeasible stepsizes."""


class InputError(SmpxError):
    """Malformed call arguments: non-finite data, structure mismatch, empty sets."""


class DomainError(SmpxError):
    """A point lies outside the feasible set or outside its interior."""


class NumericalError(SmpxError):
    """Runtime numerical breakdown, e.g. a non-finite oracle output mid-run."""
