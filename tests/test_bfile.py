import os
import random
import subprocess
import sys
import urllib.error
from pathlib import Path

import pytest

import holoseq
from holoseq.bfile import (
    BFileDocument,
    BFileFormatError,
    BFileReader,
    HTTPStatusError,
    NetworkUnavailableError,
    default_cache_dir,
    fetch_bfile,
    format_bfile,
    load_bfile,
    parse_bfile,
    read_bfile,
    write_bfile,
)
from holoseq.meixner import a214615_terms
from holoseq.parsing import parse_recurrence
from holoseq.sequences import SequenceTable, windows


def test_parse_simple():
    doc = parse_bfile("0 1\n1 1\n2 0\n")
    assert doc.entries == SequenceTable(0, (1, 1, 0))
    assert doc.sequence_id is None


def test_parse_comments_blank_lines_and_offset():
    text = "# some comment\n\n5 10\n6 -20\n7 30\n"
    doc = parse_bfile(text)
    assert doc.entries == SequenceTable(5, (10, -20, 30))


def test_parse_header_comment_sets_sequence_id():
    doc = parse_bfile("# A214615\n0 1\n1 1\n")
    assert doc.sequence_id == "A214615"


def test_parse_gap_is_an_error_with_line_number():
    with pytest.raises(BFileFormatError) as info:
        parse_bfile("0 1\n2 5\n")
    assert info.value.line_number == 2


def test_parse_malformed_lines():
    with pytest.raises(BFileFormatError):
        parse_bfile("0 1 extra\n")
    with pytest.raises(BFileFormatError):
        parse_bfile("zero 1\n")
    with pytest.raises(BFileFormatError):
        parse_bfile("0 1.5\n")
    with pytest.raises(BFileFormatError, match="line 1"):
        parse_bfile("0 1_000\n")
    with pytest.raises(BFileFormatError, match="line 2"):
        parse_bfile("0 1\n1 \uff12\n")
    with pytest.raises(BFileFormatError):
        parse_bfile("# only comments\n")
    with pytest.raises(BFileFormatError):
        parse_bfile("")


def test_parse_big_integers_and_negative_offset():
    big = 10 ** 120 + 7
    doc = parse_bfile(f"-1 {big}\n0 {-big}\n")
    assert doc.entries.offset == -1
    assert doc.entries.term(-1) == big
    assert doc.entries.term(0) == -big


def test_5000_digit_terms_round_trip_under_the_default_cap(default_digit_cap, tmp_path):
    big = 10**4999 + 7
    doc = BFileDocument(SequenceTable(0, (big, -big, big)), "A214615")
    assert parse_bfile(format_bfile(doc)) == doc
    path = tmp_path / "big.txt"
    write_bfile(doc, path)
    assert load_bfile(path) == doc
    rec = parse_recurrence("a(n) + a(n-1) = 0 for n >= 1")
    report = rec.verify_windows(windows(read_bfile(path), rec.order))
    assert report.passed and report.n_last_checked == 2
    assert sys.get_int_max_str_digits() == default_digit_cap


def test_parse_accepts_crlf():
    doc = parse_bfile("0 1\r\n1 2\r\n")
    assert doc.entries == SequenceTable(0, (1, 2))


def test_format_round_trip_with_id():
    doc = BFileDocument(a214615_terms(20), "A214615")
    assert parse_bfile(format_bfile(doc)) == doc


def test_format_round_trip_random():
    rng = random.Random(8)
    for _ in range(20):
        offset = rng.randint(-3, 5)
        terms = tuple(rng.randint(-10**12, 10**12) for _ in range(rng.randint(1, 30)))
        sid = rng.choice([None, "A%06d" % rng.randint(0, 999999)])
        doc = BFileDocument(SequenceTable(offset, terms), sid)
        assert parse_bfile(format_bfile(doc)) == doc


def test_document_rejects_bad_id():
    with pytest.raises(ValueError):
        BFileDocument(SequenceTable(0, (1,)), "214615")
    with pytest.raises(ValueError):
        BFileDocument(SequenceTable(0, (1,)), "A12")


def test_write_and_load(tmp_path):
    doc = BFileDocument(a214615_terms(11), "A214615")
    path = tmp_path / "b214615.txt"
    write_bfile(doc, path)
    assert load_bfile(path) == doc


def test_write_bfile_writes_the_format_bfile_text(tmp_path):
    doc = BFileDocument(a214615_terms(40), "A214615")
    path = tmp_path / "b.txt"
    write_bfile(doc, path)
    assert path.read_bytes() == format_bfile(doc).encode()
    assert list(read_bfile(path)) == list(doc.entries.items())


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_load_matches_parse_of_the_whole_text_at_every_line_break(tmp_path, sep):
    """str.splitlines breaks lines at each of these, so the streamed reader must too."""
    good = sep.join(f"{n} {v}" for n, v in a214615_terms(30).items())
    texts = [
        good + sep,
        f"# A214615{sep}{good}",
        good + f"{sep}# René{sep}",
        good + f"{sep}31 oops{sep}",
        good.replace(f"{sep}7 ", f"{sep}{sep}8 "),
        f"# a{sep}# b{sep}\n# c{sep}",
        "",
        sep * 3,
        # past the first 64 KiB run of lines that a file is read in
        f"# {'x' * 200}\n" * 400 + good + f"{sep}zz{sep}",
        f"# {'x' * 200}{sep}" * 400,
    ]
    for text in texts:
        path = tmp_path / "b.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = parsed = None
        try:
            expected = parse_bfile(path.read_text(encoding="utf-8"))
            parsed = parse_bfile(text)
        except BFileFormatError as error:
            expected = parsed = str(error)
        try:
            loaded = load_bfile(path)
        except BFileFormatError as error:
            loaded = str(error)
        assert loaded == expected == parsed, repr(text)


def test_a_text_without_data_lines_ends_after_its_last_newline():
    for text, line in [("", 1), ("# a", 1), ("# a\n# b\n", 3), ("\n\n\n", 4), ("# a\r# b\r", 1)]:
        with pytest.raises(BFileFormatError, match=f"^line {line}: no data lines$"):
            parse_bfile(text)


def test_each_piece_continues_the_lines_and_indices_of_the_ones_before():
    with pytest.raises(BFileFormatError, match="line 4: index 3 does not follow 1"):
        list(BFileReader(["0 1\n1 1\n", "\n3 2\n"]))
    with pytest.raises(BFileFormatError, match="line 4: expected"):
        list(BFileReader(["0 1\n", "", "# c\n\n", "x\n"]))
    with pytest.raises(BFileFormatError, match="line 6: no data lines"):
        list(BFileReader(["# a\n", "\n# b\n", "\n\n"]))
    assert list(BFileReader(["# A000045\n0 0\n", "", "1 1\n2 1"])) == [(0, 0), (1, 1), (2, 1)]


def test_the_reader_checks_one_piece_at_a_time(tmp_path):
    pieces = iter(["# A000045\n5 8\n", "6 13\n", "oops\n"])
    reader = BFileReader(pieces)
    entries = iter(reader)
    assert next(entries) == (5, 8)
    assert reader.sequence_id == "A000045"
    assert next(pieces) == "6 13\n"  # not read yet
    with pytest.raises(BFileFormatError, match="line 3: expected '<index> <term>', got 'oops'"):
        next(entries)
    path = tmp_path / "b.txt"
    path.write_text("0 1\n1 1\n" + "2 0\n" * 5, encoding="utf-8")
    with pytest.raises(BFileFormatError, match="line 4: index 2 does not follow 2"):
        next(read_bfile(path))  # the file's one piece holds the gap


# Reads and writes b-files with the interpreter's preferred encoding forced to ASCII.
ASCII_LOCALE_CHILD = """\
import locale, sys
sys.path.insert(0, sys.argv[1])
from holoseq.bfile import fetch_bfile, load_bfile
from holoseq.cli import main
assert locale.getpreferredencoding(False) == "ANSI_X3.4-1968", locale.getpreferredencoding(False)
path, cache, payload = sys.argv[2], sys.argv[3], open(sys.argv[2], "rb").read()
assert main(["verify", "--rec", "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0", "--bfile", path]) == 0
assert load_bfile(path).entries.terms == (1, 1, 0, -4)

class Response:
    status = 200
    read = staticmethod(lambda: payload)
    __enter__ = lambda self: self
    __exit__ = lambda self, *exc: False

assert fetch_bfile("A214615", cache, urlopen=lambda url, timeout: Response()).entries.terms[3] == -4
assert fetch_bfile("A214615", cache, urlopen=lambda url, timeout: 1 / 0).entries.terms[3] == -4
assert open(cache + "/b214615.txt", "rb").read() == payload
"""


def test_bfiles_are_read_and_cached_as_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "b.txt"
    path.write_bytes("# René's table\n0 1\n1 1\n2 0\n3 -4\n".encode("utf-8"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    src = str(Path(holoseq.__file__).resolve().parent.parent)
    child = [sys.executable, "-c", ASCII_LOCALE_CHILD, src, str(path), str(tmp_path / "cache")]
    done = subprocess.run(child, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("HOLOSEQ_CACHE_DIR", str(tmp_path / "alt"))
    assert default_cache_dir() == tmp_path / "alt"


def test_fetch_rejects_bad_id_before_any_network(tmp_path):
    def exploding_urlopen(url, timeout):
        raise AssertionError("network must not be touched")

    with pytest.raises(ValueError):
        fetch_bfile("banana", cache_dir=tmp_path, urlopen=exploding_urlopen)


def test_fetch_uses_warm_cache_without_network(tmp_path):
    (tmp_path / "b214615.txt").write_text(format_bfile(BFileDocument(a214615_terms(11))))

    def exploding_urlopen(url, timeout):
        raise AssertionError("network must not be touched")

    doc = fetch_bfile("A214615", cache_dir=tmp_path, urlopen=exploding_urlopen)
    assert doc.entries == a214615_terms(11)
    assert doc.sequence_id == "A214615"


class _FakeResponse:
    def __init__(self, payload: bytes, status: int = 200):
        self._payload = payload
        self.status = status

    def read(self) -> bytes:
        return self._payload

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_fetch_cold_then_cached(tmp_path):
    calls = []

    def fake_urlopen(url, timeout):
        calls.append(url)
        return _FakeResponse(b"0 1\n1 1\n2 0\n")

    doc = fetch_bfile("A214615", cache_dir=tmp_path, urlopen=fake_urlopen)
    assert doc.entries == SequenceTable(0, (1, 1, 0))
    assert calls == ["https://oeis.org/A214615/b214615.txt"]
    assert (tmp_path / "b214615.txt").read_text() == "0 1\n1 1\n2 0\n"
    # second fetch is served from disk
    again = fetch_bfile("A214615", cache_dir=tmp_path, urlopen=fake_urlopen)
    assert again == doc
    assert len(calls) == 1


def test_fetch_http_error(tmp_path):
    def fake_urlopen(url, timeout):
        raise urllib.error.HTTPError(url, 404, "not found", None, None)

    with pytest.raises(HTTPStatusError) as info:
        fetch_bfile("A000001", cache_dir=tmp_path, urlopen=fake_urlopen)
    assert info.value.status == 404
    assert not (tmp_path / "b000001.txt").exists()


def test_fetch_network_error_mentions_offline_path(tmp_path):
    def fake_urlopen(url, timeout):
        raise urllib.error.URLError("no route to host")

    with pytest.raises(NetworkUnavailableError) as info:
        fetch_bfile("A000001", cache_dir=tmp_path, urlopen=fake_urlopen)
    assert "offline" in str(info.value)


def test_fetch_parse_failure_does_not_poison_cache(tmp_path):
    def fake_urlopen(url, timeout):
        return _FakeResponse(b"garbage here\n")

    with pytest.raises(BFileFormatError):
        fetch_bfile("A000001", cache_dir=tmp_path, urlopen=fake_urlopen)
    assert not (tmp_path / "b000001.txt").exists()
