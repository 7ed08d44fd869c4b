"""OEIS b-file reading, writing, and cached fetching.

A b-file is plain text: one "<index> <term>" pair per line, consecutive
ascending indices, with '#' comment lines and blank lines ignored.  The
writer emits a "# A214615" style header comment so that a document's
sequence id survives a round trip through text.
"""

from __future__ import annotations

import os
import re
import tempfile
import urllib.error
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

from .polynomials import _INTEGER_RE, _lift_digit_cap
from .sequences import SequenceTable

SEQUENCE_ID_RE = re.compile(r"A[0-9]{6,7}\Z")

_CACHE_ENV_VAR = "HOLOSEQ_CACHE_DIR"
_OEIS_URL = "https://oeis.org/{sid}/b{digits}.txt"


class BFileFormatError(ValueError):
    """Malformed b-file text; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class FetchError(Exception):
    """Base class for b-file download failures."""


class NetworkUnavailableError(FetchError):
    """No route to the server; pass a local file via --bfile to work offline."""


class HTTPStatusError(FetchError):
    """The server answered with a non-success status."""

    def __init__(self, status: int, url: str):
        self.status = status
        self.url = url
        super().__init__(f"HTTP {status} for {url}")


@dataclass(frozen=True)
class BFileDocument:
    entries: SequenceTable
    sequence_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sequence_id is not None and not SEQUENCE_ID_RE.match(self.sequence_id):
            raise ValueError(f"not an OEIS sequence id: {self.sequence_id!r}")


class BFileReader:
    """Iterates over the checked (n, a(n)) entries of b-file text given in ``pieces``.

    Each piece ends at a line break, or at the end of the text; ``str.splitlines`` cuts it
    into lines, numbered from the start of the whole text.  Each piece is checked whole when
    the reading gets to it: a malformed line, a gap in the indices or a text without data
    lines raises BFileFormatError.  ``sequence_id``, unless given, becomes the first
    "# A000000" comment read.
    """

    def __init__(self, pieces: Iterable[str], sequence_id: Optional[str] = None):
        self.pieces, self.sequence_id = pieces, sequence_id

    def __iter__(self) -> Iterator[tuple[int, int]]:
        line_number, last, newlines = 0, None, 0
        for piece in self.pieces:
            newlines += piece.count("\n")
            line_number, last, terms = self._terms(piece, line_number, last)
            if terms:
                yield from enumerate(terms, last + 1 - len(terms))
        if last is None:
            raise BFileFormatError("no data lines", line_number=newlines + 1)

    @_lift_digit_cap
    def _terms(self, piece: str, line_number: int, last: Optional[int]) -> tuple[int, int, list]:
        """The numbers of the last line and the last index of ``piece``, and its terms, checked
        after the line ``line_number`` and the index ``last`` before it."""
        terms = []
        for line_number, raw in enumerate(piece.splitlines(), line_number + 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                comment = line[1:].strip()
                if self.sequence_id is None and SEQUENCE_ID_RE.match(comment):
                    self.sequence_id = comment
                continue
            fields = line.split()
            if len(fields) != 2:
                raise BFileFormatError(f"expected '<index> <term>', got {line!r}", line_number)
            if not (_INTEGER_RE.match(fields[0]) and _INTEGER_RE.match(fields[1])):
                raise BFileFormatError(f"non-integer field in {line!r}", line_number)
            index, term = int(fields[0]), int(fields[1])
            if last is not None and index != last + 1:
                raise BFileFormatError(f"index {index} does not follow {last}", line_number)
            last = index
            terms.append(term)
        return line_number, last, terms

    def document(self) -> BFileDocument:
        """All the entries as one table, with the sequence id as it stands after the last."""
        entries = iter(self)
        offset, first = next(entries)
        table = SequenceTable(offset, (first, *(term for _, term in entries)))
        return BFileDocument(table, self.sequence_id)


def _pieces(path: Union[str, Path]) -> Iterator[str]:
    """The UTF-8 text of the file at ``path``, in runs of whole lines of about 64 KiB."""
    with open(path, encoding="utf-8") as stream:
        yield from map("".join, iter(lambda: stream.readlines(1 << 16), []))


def parse_bfile(text: str, sequence_id: Optional[str] = None) -> BFileDocument:
    """Parse b-file text; indices must be consecutive and ascending.

    A leading "# A000000" comment sets the document's sequence id unless an
    explicit one is passed in.
    """
    return BFileReader([text], sequence_id).document()


def read_bfile(path: Union[str, Path]) -> Iterator[tuple[int, int]]:
    """The checked (n, a(n)) entries of the b-file at ``path``, read about 64 KiB at a time."""
    return iter(BFileReader(_pieces(path)))


def load_bfile(path: Union[str, Path]) -> BFileDocument:
    """``parse_bfile`` of the UTF-8 text of the file at ``path``, read about 64 KiB at a time."""
    return BFileReader(_pieces(path)).document()


def _bfile_lines(document: BFileDocument) -> Iterator[str]:
    """The lines of the document's b-file text, each with its newline; under the caller's cap."""
    if document.sequence_id is not None:
        yield f"# {document.sequence_id}\n"
    for n, value in document.entries.items():
        yield f"{n} {value}\n"


@_lift_digit_cap
def format_bfile(document: BFileDocument) -> str:
    return "".join(_bfile_lines(document))


@_lift_digit_cap
def write_bfile(document: BFileDocument, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        stream.writelines(_bfile_lines(document))


def default_cache_dir() -> Path:
    env = os.environ.get(_CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "holoseq"


def _cache_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".part")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(temp_name, path)
    except BaseException:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
        raise


def fetch_bfile(
    sequence_id: str,
    cache_dir: Optional[Union[str, Path]] = None,
    *,
    urlopen: Optional[Callable] = None,
    timeout: float = 30.0,
) -> BFileDocument:
    """Fetch bNNNNNN.txt for a sequence, caching the raw text on disk.

    A cached copy short-circuits the network entirely.  Downloads land in
    the cache via a temp file + atomic rename, and only after parsing
    succeeds.
    """
    if not SEQUENCE_ID_RE.match(sequence_id):
        raise ValueError(f"not an OEIS sequence id: {sequence_id!r}")
    digits = sequence_id[1:]
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cached_path = cache / f"b{digits}.txt"
    if cached_path.exists():
        return BFileReader(_pieces(cached_path), sequence_id).document()
    url = _OEIS_URL.format(sid=sequence_id, digits=digits)
    if urlopen is None:
        from urllib.request import urlopen  # costs tens of ms; only a download needs it
    try:
        with urlopen(url, timeout=timeout) as response:
            status = getattr(response, "status", 200)
            if status != 200:
                raise HTTPStatusError(status, url)
            text = response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        raise HTTPStatusError(error.code, url) from error
    except urllib.error.URLError as error:
        raise NetworkUnavailableError(
            f"cannot reach {url} ({error.reason}); use a local b-file to work offline"
        ) from error
    except OSError as error:
        raise NetworkUnavailableError(
            f"cannot reach {url} ({error}); use a local b-file to work offline"
        ) from error
    document = parse_bfile(text, sequence_id)
    _cache_write(cached_path, text)
    return document
