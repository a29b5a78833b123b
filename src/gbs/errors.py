"""Exception types shared across the toolkit, and `malformed`, the guard that
turns the raw errors of a certificate reader into an InputError."""

from functools import wraps


class GBSError(Exception):
    """Base class for all toolkit errors."""


class InputError(GBSError):
    """Bad user input (parse errors, malformed graphs or words)."""


class DisconnectedGraphError(GBSError):
    """A graph is not connected: the graph constructor refuses it."""


class NotReducedError(GBSError):
    """Operation is only defined for reduced graphs."""


class ShapeError(GBSError):
    """Graph does not have the segment/circle/lollipop shape the operation needs."""


class ElementaryGroupError(GBSError):
    """Operation excludes Z, Z^2 and the Klein bottle group."""


class MoveError(GBSError):
    """Graph move preconditions violated (wrong edge, missing unit label, ...)."""


class MalformedWordError(GBSError):
    """Word is not a valid based path word over the graph."""


class CertificateError(GBSError):
    """A certificate is structurally unusable (not a soundness failure)."""


class MissingWitnessError(CertificateError):
    """Surjectivity check requested but the certificate carries no witnesses."""


class FactorizationCapError(GBSError):
    """Integer exceeds the trial-division cap."""


class VertexCapError(GBSError):
    """Graph exceeds the exhaustive-search vertex cap."""


class DecisionError(GBSError):
    """Decider preconditions violated (zero labels, excluded groups, ...)."""


class WordCapError(GBSError):
    """A word would be written out beyond the expansion cap."""


def malformed(kind: str):
    """Decorate a from_json reader: a provenance that is no string, and the
    KeyError, TypeError, ValueError or AttributeError the reader meets on a JSON
    shape it does not unpack, raise InputError("malformed <kind> certificate: ...")."""

    def decorate(read):
        @wraps(read)
        def guarded(cls, data):
            try:
                if type(data.get("provenance", "")) is not str:
                    raise InputError(f"malformed {kind} certificate: its provenance must be a string")
                return read(cls, data)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise InputError(f"malformed {kind} certificate: {type(exc).__name__}: {exc}") from exc

        return guarded

    return decorate
