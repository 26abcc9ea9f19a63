"""Exception types shared across the codec modules."""


class ArrayCodeError(Exception):
    """Base class for codec failures."""


class InvalidInputError(ArrayCodeError, ValueError):
    """A decoder got an argument of the wrong type or shape.  Also a
    ValueError, so callers that catch ValueError still catch it."""


class CapacityExceededError(ArrayCodeError):
    """The damage exceeds what the code is declared to correct."""


class ChannelContractError(ArrayCodeError):
    """The received word cannot be the output of the declared channel."""


class CorruptInputError(ArrayCodeError):
    """Decoding reached an inconsistent state (input is not in contract)."""


class AmbiguousErasureError(ArrayCodeError):
    """The erasure system is underdetermined; more than one codeword fits."""


class NotACodewordError(ArrayCodeError):
    """The unerased data is inconsistent with every codeword."""
