"""OEIS b-file reading, writing, and cached fetching.

A b-file is plain text: one "<index> <term>" pair per line, consecutive
ascending indices, with '#' comment lines and blank lines ignored.  The
writer emits a "# A214615" style header comment so that a document's
sequence id survives a round trip through text.  Terms are ints, except where
the CLI's two b-file checks, ``verify`` and ``selfcheck --against``, read them
through ``BFileReader``'s ``_term=str`` as the checked text itself, which their
walk converts only where the text does not read as the solved term.
"""

from __future__ import annotations

import io
import os
import re
import shutil
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

from .polynomials import _Frozen, _is_integer, _lift_digit_cap
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


class BFileDocument(_Frozen):
    """A b-file's entries and, when known, its OEIS sequence id."""

    _fields = ("entries", "sequence_id")

    def __init__(self, entries: SequenceTable, sequence_id: Optional[str] = None) -> None:
        if sequence_id is not None and not SEQUENCE_ID_RE.match(sequence_id):
            raise ValueError(f"not an OEIS sequence id: {sequence_id!r}")
        self._store(entries, sequence_id)


class BFileReader:
    """Iterates over the checked (n, a(n)) entries of b-file text given as ``batches`` of lines.

    Each batch is a list of lines as a text stream in universal-newline mode gives them: a
    line ends at a ``\\n``, ``\\r\\n`` or ``\\r``, read as ``\\n``, and only the text's last line
    may lack it.  Lines are numbered from the start of the whole text, by the one count that
    also says on which line the text ends.  Each batch is checked whole when the reading gets
    to it: a malformed line, a gap in the indices or a text without data lines raises
    BFileFormatError.  ``sequence_id``, unless given, becomes the first "# A000000" comment
    read.  Each term is ``_term`` of its checked field: an int, or, with ``_term=str`` for the
    CLI's ``verify`` and ``selfcheck --against``, the checked text.
    """

    def __init__(
        self, batches: Iterable[list], sequence_id: Optional[str] = None, _term: Callable = int
    ):
        self.batches, self.sequence_id, self._term = batches, sequence_id, _term

    def __iter__(self) -> Iterator[tuple[int, int]]:
        line_number, last = 1, None
        for lines in self.batches:
            line_number, last, terms = self._terms(lines, line_number, last)
            if terms:
                yield from enumerate(terms, last + 1 - len(terms))
        if last is None:
            raise BFileFormatError("no data lines", line_number)

    @_lift_digit_cap
    def _terms(self, lines: list, line_number: int, last: Optional[int]) -> tuple[int, int, list]:
        """The number of the line that the text read so far ends on, the last index and the
        terms of ``lines``, checked from the line ``line_number`` and after the index ``last``."""
        terms, raw = [], ""
        for line_number, raw in enumerate(lines, line_number):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                comment = line[1:].strip()
                if self.sequence_id is None and SEQUENCE_ID_RE.match(comment):
                    self.sequence_id = comment
                continue
            fields = line.split(None, 1)  # past the index, the term is not scanned for spaces
            if not (len(fields) == 2 and _is_integer(fields[0]) and _is_integer(fields[1])):
                if len(line.split()) != 2:
                    raise BFileFormatError(f"expected '<index> <term>', got {line!r}", line_number)
                raise BFileFormatError(f"non-integer field in {line!r}", line_number)
            index, term = int(fields[0]), self._term(fields[1])
            if last is not None and index != last + 1:
                raise BFileFormatError(f"index {index} does not follow {last}", line_number)
            last = index
            terms.append(term)
        return line_number + raw.endswith("\n"), last, terms

    def document(self) -> BFileDocument:
        """All the entries as one table, with the sequence id as it stands after the last."""
        entries = iter(self)
        offset, first = next(entries)
        table = SequenceTable(offset, (first, *(term for _, term in entries)))
        return BFileDocument(table, self.sequence_id)


def _pieces(path: Union[str, Path]) -> Iterator[list[str]]:
    """The lines of the UTF-8 text of the file at ``path``, in universal-newline mode, in
    batches of about 64 KiB."""
    with open(path, encoding="utf-8") as stream:
        yield from iter(lambda: stream.readlines(1 << 16), [])


def parse_bfile(text: str, sequence_id: Optional[str] = None) -> BFileDocument:
    """Parse b-file text; indices must be consecutive and ascending.

    A leading "# A000000" comment sets the document's sequence id unless an
    explicit one is passed in.
    """
    return BFileReader([io.StringIO(text, newline=None).readlines()], sequence_id).document()


def read_bfile(path: Union[str, Path]) -> Iterator[tuple[int, int]]:
    """The checked (n, a(n)) entries of the b-file at ``path``, read about 64 KiB at a time."""
    return iter(BFileReader(_pieces(path)))


def load_bfile(path: Union[str, Path]) -> BFileDocument:
    """``parse_bfile`` of the UTF-8 text of the file at ``path``, read about 64 KiB at a time."""
    return BFileReader(_pieces(path)).document()


def _bfile_lines(
    entries: Iterable[tuple[int, object]], sequence_id: Optional[str] = None
) -> Iterator[str]:
    """The lines of b-file text, each with its newline, of the (n, a(n)) ``entries`` under a
    "# A000000" line of the ``sequence_id``, if any; under the caller's cap."""
    if sequence_id is not None:
        yield f"# {sequence_id}\n"
    for n, value in entries:
        yield f"{n} {value!s}\n"


@_lift_digit_cap
def format_bfile(document: BFileDocument) -> str:
    return "".join(_bfile_lines(document.entries.items(), document.sequence_id))


@_lift_digit_cap
def write_bfile(document: BFileDocument, path: Union[str, Path]) -> None:
    """Write ``document``'s b-file text to ``path`` through ``_write_replacing``."""
    _write_replacing(path, _bfile_lines(document.entries.items(), document.sequence_id))


def default_cache_dir() -> Path:
    env = os.environ.get(_CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "holoseq"


def _write_replacing(path: Union[str, Path], lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path``, all or nothing: the one way b-file text is written.

    Where ``path`` resolves to something that exists and is not a regular file, such as a
    pipe or a device, the lines are all made first and then written through it.  Otherwise
    they go to a new "<target>.<pid>.part" beside the resolved target, which takes an
    existing target's permission bits and is then moved onto it, so a symlink stays a link;
    if anything fails on the way, the part file is removed and the target is left as it was.
    The move makes a new file, so other hard links to the old target keep the old text.
    Errors name ``path`` as given.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        lines = list(lines)
        with open(path, "w", encoding="utf-8") as stream:
            stream.writelines(lines)
        return
    part = Path(f"{target}.{os.getpid()}.part")
    try:
        stream = open(part, "x", encoding="utf-8")  # mode "x": never another writer's part file
    except OSError as error:  # name the target, as opening the target itself would
        raise type(error)(error.errno, error.strerror, str(path)) from None
    try:
        with stream:
            stream.writelines(lines)
        if os.path.isfile(target):
            shutil.copymode(target, part)
        os.replace(part, target)
    except BaseException:
        part.unlink()
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
    import urllib.error  # only a download reaches the except clauses below
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
    except OSError as error:  # a URLError too, which carries the underlying reason
        reason = error.reason if isinstance(error, urllib.error.URLError) else error
        raise NetworkUnavailableError(
            f"cannot reach {url} ({reason}); use a local b-file to work offline"
        ) from error
    document = parse_bfile(text, sequence_id)
    cache.mkdir(parents=True, exist_ok=True)
    _write_replacing(cached_path, [text])
    return document
