import random
import urllib.error

import pytest

from holoseq.bfile import (
    BFileDocument,
    BFileFormatError,
    HTTPStatusError,
    NetworkUnavailableError,
    default_cache_dir,
    fetch_bfile,
    format_bfile,
    load_bfile,
    parse_bfile,
    write_bfile,
)
from holoseq.meixner import a214615_terms
from holoseq.sequences import SequenceTable


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


def test_parse_accepts_bytes_and_crlf():
    doc = parse_bfile(b"0 1\r\n1 2\r\n")
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
