"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Dims, spacing, or plane of an input do not match what the operation needs."""


class FormatError(ValueError):
    """A file or byte stream violates its on-disk contract."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss, or an update left the named parameter non-finite."""

    def __init__(self, epoch: int, loss: float, parameter: str | None = None):
        what = f"non-finite loss {loss!r}" if parameter is None else f"non-finite parameter {parameter!r}"
        super().__init__(f"{what} at epoch {epoch}")
        self.epoch = epoch
        self.loss = loss
        self.parameter = parameter
