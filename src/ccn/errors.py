"""Exception hierarchy shared across the library, the text-file reader
that reports undecodable input as a DataError, and ``atomic_write``, the
writer every file the library writes whole goes through.

``EXIT_CODES`` maps exceptions onto the CLI's process exit codes: the
first row whose class matches wins. Usage errors (plain ValueError, a
missing input file) exit 1, CcnError subclasses and other OSErrors exit 2,
DivergenceError exits 3.
"""

import os
from contextlib import contextmanager, suppress
from pathlib import Path


class CcnError(Exception):
    """Base class for library errors."""


class ShapeError(CcnError):
    """Tensor dimensions do not line up for the requested operation."""


class VocabError(CcnError):
    """A token id falls outside the model vocabulary."""


class MaskError(CcnError):
    """An attention query row has no allowed key (softmax over empty support)."""


class DataError(CcnError):
    """Corpus/batch level problem: empty input, misaligned files, oversized sentence."""


class DeterminismError(CcnError):
    """A function handed to the gradient checker returned different values on repeat evaluation."""


class DivergenceError(CcnError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


EXIT_CODES = ((DivergenceError, 3), (CcnError, 2), (FileNotFoundError, 1), (ValueError, 1), (OSError, 2))


def read_text(path) -> str:
    """The contents of a UTF-8 text file; bytes that are not UTF-8 raise a
    DataError naming the file and the byte offset."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: byte {exc.start}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def atomic_write(path, text: bool = False):
    """A binary file handle, or a UTF-8 text one with ``text``, whose
    contents replace ``path`` (``os.replace``) once the block ends; if the
    block raises, the temporary file next to ``path`` is removed and
    ``path`` is left as it was. There is no fsync: this covers a writer that
    fails or is killed, not a power cut."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w" if text else "wb", encoding="utf-8" if text else None) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            tmp.unlink()
        raise
