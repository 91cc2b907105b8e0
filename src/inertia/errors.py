"""Error types shared across the package."""

__all__ = ["InvalidArgument", "NumericalFailure"]


class InvalidArgument(ValueError):
    """A caller-supplied value violates a documented precondition."""


class NumericalFailure(RuntimeError):
    """A computation produced NaN/Inf or otherwise left the valid numeric domain.

    ``step_index`` identifies the integration step at which the failure was
    detected, and ``member`` the ensemble member, when they are known
    (``member`` is None for single runs).
    """

    def __init__(self, message: str, step_index: int | None = None, member: int | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.member = member
