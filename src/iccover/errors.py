"""Exception types shared across the package."""

from __future__ import annotations

ECHO_LIMIT = 60


def echo(value) -> str:
    """repr(value) for an error message, cut to ECHO_LIMIT characters plus
    "..." so that an oversized input gives a short message."""
    try:
        text = repr(value)
    except ValueError:  # an int beyond CPython's digit limit for str()
        text = f"<int of {value.bit_length()} bits>"
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT] + "..."


def _is_count(x) -> bool:
    """An int and not a bool: the type every id, count and length must have;
    an exact int, the common case, passes on type() without a call."""
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


class IccoverError(Exception):
    """Base class for all library errors."""


class InvalidDigraph(IccoverError):
    """Digraph construction rejected: bad endpoint, self-arc, or bad vertex id."""


class FormatError(IccoverError):
    """Malformed file or text input; the message carries line/field context."""


class InvalidTemplate(IccoverError):
    """Template violates a structural invariant."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class EmbeddingError(IccoverError):
    """A subgraph does not embed into the host digraph as claimed."""


class SizeRefusal(IccoverError):
    """Exact search refused because the instance exceeds the size bound."""


class InvalidCode(IccoverError):
    """Index-code or packet data violates its shape contract."""


class DecodeFailure(IccoverError):
    """Receiver cannot complete its decoding chain."""


class MissingSidePacket(DecodeFailure):
    """A required side-information packet was not supplied."""

    def __init__(self, message_id: int):
        self.message_id = message_id
        super().__init__(f"unmet dependency: side-information packet for message x{message_id} is missing")


class MissingCodedSymbol(DecodeFailure):
    """A required coded symbol is absent from the received index code."""

    def __init__(self, support):
        self.support = frozenset(support)
        ids = "+".join(f"x{i}" for i in sorted(self.support))
        super().__init__(f"unmet dependency: coded symbol {ids} is missing from the index code")
