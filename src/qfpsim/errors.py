"""The two failure classes: a bad argument or config (the CLI's exit 2), and
a refusal of the physics itself (its exit 3)."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class PhysicsError(Exception):
    """The physics refuses the request: an operating point out of reach, a
    fit or reconstruction that fails, or a result that is not finite."""
