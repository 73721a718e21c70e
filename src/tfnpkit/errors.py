"""Exception types shared across the toolkit."""


class TfnpError(Exception):
    """Base class for toolkit-specific failures."""


class DimensionError(TfnpError, ValueError):
    """An argument's bit width or arity does not match the declared shape."""


class RestrictionError(TfnpError, ValueError):
    """A circuit restriction was requested for an index that cannot be removed."""


class NetlistError(TfnpError, ValueError):
    """Netlist or instance-envelope text that does not parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class MalformedInstanceError(TfnpError):
    """An instance violated the guarantee its problem kind promises."""


class SolveBoundError(TfnpError):
    """A request refused: it exceeds a configured size or step bound."""


class OracleContractError(TfnpError):
    """An oracle returned an answer that does not verify on the queried instance."""


class MonitorViolation(TfnpError):
    """A query broke the size discipline of the monitored reduction mode."""


class PullbackContractError(TfnpError):
    """A pullback received a candidate that does not verify on the target instance."""


class PromiseViolation(TfnpError):
    """A unique-path promise failed a desk-scale check."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class SizingError(TfnpError):
    """A size over its declared growth budget, or asked of an instance with no circuit."""


class InvalidStateError(TfnpError):
    """A position was requested for a state table that is not valid."""
