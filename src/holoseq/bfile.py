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
from typing import Callable, Optional, Union

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


@_lift_digit_cap
def parse_bfile(text: str, sequence_id: Optional[str] = None) -> BFileDocument:
    """Parse b-file text; indices must be consecutive and ascending.

    A leading "# A000000" comment sets the document's sequence id unless an
    explicit one is passed in.
    """
    found_id = sequence_id
    indices: list[int] = []
    terms: list[int] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if found_id is None and SEQUENCE_ID_RE.match(comment):
                found_id = comment
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileFormatError(
                f"expected '<index> <term>', got {line!r}", line_number
            )
        if not all(_INTEGER_RE.match(field) for field in fields):
            raise BFileFormatError(f"non-integer field in {line!r}", line_number)
        index, term = int(fields[0]), int(fields[1])
        if indices and index != indices[-1] + 1:
            raise BFileFormatError(
                f"index {index} does not follow {indices[-1]}", line_number
            )
        indices.append(index)
        terms.append(term)
    if not terms:
        raise BFileFormatError("no data lines", line_number=max(1, text.count("\n") + 1))
    return BFileDocument(SequenceTable(indices[0], tuple(terms)), found_id)


@_lift_digit_cap
def format_bfile(document: BFileDocument) -> str:
    lines = []
    if document.sequence_id is not None:
        lines.append(f"# {document.sequence_id}")
    lines.extend(f"{n} {value}" for n, value in document.entries.items())
    return "\n".join(lines) + "\n"


def load_bfile(path: Union[str, Path]) -> BFileDocument:
    return parse_bfile(Path(path).read_text())


def write_bfile(document: BFileDocument, path: Union[str, Path]) -> None:
    Path(path).write_text(format_bfile(document))


def default_cache_dir() -> Path:
    env = os.environ.get(_CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "holoseq"


def _cache_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".part")
    try:
        with os.fdopen(handle, "w") as stream:
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
        return parse_bfile(cached_path.read_text(), sequence_id)
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
