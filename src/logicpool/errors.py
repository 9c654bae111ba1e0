"""Exception types shared across the package."""


class LogicPoolError(Exception):
    """Base class for all package errors."""


class StructureError(LogicPoolError):
    """A statement, clue, or grid references something that does not exist."""


class CapacityError(LogicPoolError):
    """An instance is too large for exhaustive solving."""


class GenerationError(LogicPoolError):
    """The rejection-sampling budget was exhausted without a valid puzzle."""


class DataError(LogicPoolError):
    """Token probability data violates basic sanity bounds."""


class NoAnswerError(LogicPoolError):
    """A selection criterion had no eligible candidate to choose from."""


class BackendError(LogicPoolError):
    """A model backend request failed after exhausting retries."""


class ProtocolError(BackendError):
    """The backend returned a payload we cannot interpret."""


class ReplayMissError(BackendError):
    """Replay mode was asked for a request that is not in the journal."""


class ConfigError(LogicPoolError):
    """An experiment configuration is invalid."""
