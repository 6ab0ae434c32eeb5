"""Error taxonomy shared across the package."""


class ConfigurationError(ValueError):
    """Unsupported Cartan type, malformed Levi subset, bad CLI input."""


class DomainError(ValueError):
    """Structurally valid input outside an operation's precondition."""


class FeasibilityError(RuntimeError):
    """A resource cap was hit; the instance should be reported as skipped."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap

    def __reduce__(self):
        # the default rebuilds from ``args``, which lack the cap; a forked
        # sweep worker sends its exception back pickled
        return type(self), (self.args[0], self.cap), self.__dict__
