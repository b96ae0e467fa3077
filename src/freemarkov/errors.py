"""Exception types shared across the package."""


class StructuralError(ValueError):
    """A container is malformed (dimension/shape/key mismatch).

    Distinct from numeric violations, which are reported by
    ``transition.validate`` instead of raised.
    """


class InconsistentMarginalsError(ValueError):
    """Pair joints do not agree with the single-site vector."""


class CapabilityError(RuntimeError):
    """A source cannot produce the requested quantity at this size.

    Raised both for genuine capability limits (an empirical source asked
    beyond its sample ball) and for sizing refusals (configuration counts
    past the exactness guards).  A sizing refusal sets ``needed``, the size
    the request would have built (None for a ball too large to count), and
    ``limit``, the guard it exceeds; both are None otherwise.
    """

    def __init__(self, message: str, *, needed: int | None = None,
                 limit: int | None = None):
        super().__init__(message)
        self.needed = needed
        self.limit = limit


class FormatError(ValueError):
    """A file or JSON document does not match the documented schema."""
