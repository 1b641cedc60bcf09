"""Shared exception types, and the file operations that raise them."""

import os
from contextlib import contextmanager

import numpy as np


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
    """The contents of a text file; a path that cannot be read, or that
    does not hold text, raises ConfigurationError naming it."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not a text file: {exc}") from exc




class LineReader:
    """The nonblank lines of a text file, read one at a time.

    A line that is missing, or that the block reading it fails to parse
    (IndexError or ValueError), raises ConfigurationError naming the path
    and the line number.
    """

    def __init__(self, path: str):
        self.path = path
        self._lines = [(i, ln.strip()) for i, ln in
                       enumerate(read_text(path).split("\n"), start=1) if ln.strip()]
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._lines) - self._pos

    @contextmanager
    def line(self, what: str):
        """Yield the tokens of the next line; `what` describes it in errors."""
        if not self.remaining:
            lineno = self._lines[-1][0] + 1 if self._lines else 1
            raise ConfigurationError(f"{self.path}:{lineno}: expected {what}, "
                                     "found the end of the file")
        lineno, text = self._lines[self._pos]
        self._pos += 1
        try:
            yield text.split()
        except ConfigurationError as exc:
            raise ConfigurationError(f"{self.path}:{lineno}: {exc}") from exc
        except (IndexError, ValueError) as exc:
            raise ConfigurationError(
                f"{self.path}:{lineno}: expected {what}, got {text!r}") from exc

    def floats(self, count: int, what: str) -> np.ndarray:
        """The next line as exactly `count` finite floats; `what` names them
        in errors."""
        with self.line(f"{count} {what}") as tokens:
            if len(tokens) != count:
                raise ConfigurationError(f"expected {count} {what}, got {len(tokens)}")
            values = np.array([float(t) for t in tokens])
            if not np.all(np.isfinite(values)):
                raise ConfigurationError(f"{what} must be finite, got {' '.join(tokens)}")
        return values

    def end(self) -> None:
        """Raise ConfigurationError naming the next line, if there is one."""
        if self.remaining:
            lineno, text = self._lines[self._pos]
            raise ConfigurationError(
                f"{self.path}:{lineno}: expected the end of the file, got {text!r}")


def make_dir(path: str) -> None:
    """Create the directory path and its parents if missing; a path that
    cannot be a directory raises ConfigurationError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot use {path} as output directory: {exc.strerror or exc}") from exc
