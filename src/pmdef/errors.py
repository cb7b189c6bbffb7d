"""Exception taxonomy for the whole package.

Two buckets matter to the CLI: ``UserError`` maps to exit code 1 (bad input,
bad config, bad file), ``RuntimeFailure`` maps to exit code 2 (something went
wrong while computing).
"""


class PmdefError(Exception):
    """Base class for all package errors."""


class UserError(PmdefError):
    """Caller supplied something invalid (data, config, arguments, files)."""


class RuntimeFailure(PmdefError):
    """A computation failed despite valid inputs."""


class DimensionError(UserError):
    """Tensor or model shapes do not line up."""


class ParameterError(UserError):
    """A hyperparameter or argument is out of its valid range."""


class DataError(UserError):
    """Data is empty, structurally unusable or violates a contract
    (non-distribution rows, bad labels)."""


class ConfigError(UserError):
    """An experiment config, probe or model spec is invalid."""


class ParseError(UserError):
    """A file does not conform to its format: wrong magic, truncated, or
    counts and sizes that disagree with its contents."""


class ContractError(RuntimeFailure):
    """An internal API precondition was violated."""


class NonFiniteError(RuntimeFailure):
    """A forward pass, a loss or a checked function value became NaN or Inf."""
