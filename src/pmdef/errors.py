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


class ValidationError(UserError):
    """Data values violate a contract (non-distribution rows, bad labels)."""


class DataError(UserError):
    """A dataset or sample is empty or structurally unusable."""


class SpecError(UserError):
    """A model spec does not shape-chain."""


class ConfigError(UserError):
    """An experiment or probe configuration is invalid."""


class CompositionError(UserError):
    """Autoencoder output shape does not match the classifier input."""


class ContractError(RuntimeFailure):
    """An internal API precondition was violated."""


class EvaluationError(RuntimeFailure):
    """A function value required by a numeric check is not finite."""


class NonFiniteError(RuntimeFailure):
    """A forward pass produced NaN or Inf from finite inputs."""


class DivergenceError(RuntimeFailure):
    """Training loss became NaN."""


class ParseError(UserError):
    """A binary file does not conform to its format."""


class MagicError(ParseError):
    """Wrong magic bytes at the start of a file."""


class TruncationError(ParseError):
    """File ended before the declared payload."""


class MismatchError(ParseError):
    """Counts or sizes declared by a file disagree with its contents."""
