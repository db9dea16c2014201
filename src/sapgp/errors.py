"""Exception types shared across the package."""


class SapgpError(Exception):
    """Base class for all package errors."""


class ContractError(SapgpError):
    """A documented precondition was violated by the caller."""


class ConfigError(SapgpError):
    """Invalid run configuration."""


class ParseError(SapgpError):
    """Malformed input file (message carries the offending row number)."""


class ValidationError(SapgpError):
    """Input data rejected: non-finite values or inconsistent shapes."""


class NumericalError(SapgpError):
    """A numerical routine failed, e.g. an indefinite Cholesky factorization."""


class DivergedError(SapgpError):
    """A solve diverged where its result was needed (``sapgp infer`` exits 2)."""


class WorkerError(SapgpError):
    """A worker task failed; the run aborts with no partial results."""
