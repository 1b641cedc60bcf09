"""Shared exception types, and the file read that raises them."""


class ConfigurationError(ValueError):
    """Invalid configuration (bad counts, out-of-range split index, ...)."""


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


class DegenerateInputError(ValueError):
    """Input is degenerate for the requested operation (all-zero matrix,
    vanishing projection, ...)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (non-convergence, internal
    inconsistency between two routes that must agree)."""


# every graphdisc error type; the CLI reports each of them in one line
GRAPHDISC_ERRORS = (ConfigurationError, ShapeError, DegenerateInputError, NumericalError)


def read_text(path: str) -> str:
    """The contents of a text file; a path that cannot be read raises
    ConfigurationError naming it."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror or exc}") from exc
