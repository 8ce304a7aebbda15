"""The in-place file writer against `Path.write_text`, the call it replaces."""

from __future__ import annotations

import errno
import os
import stat
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taskweave import RunConfig, load_scenario, orchestrate, runlog
from taskweave._files import check_writable, write_blocks, write_text
from taskweave.cli import main
from taskweave.scenario import dump_scenario

from conftest import CANONICAL_SCENARIOS, CliRunner

TEXTS = st.one_of(st.text(st.characters(max_codepoint=127)), st.text())
RELATIONS = ("absent", "empty", "shorter", "same length", "longer")


def resized(text: str, size: int) -> bytes:
    """`text` in UTF-8, cut at a character boundary to at most `size` bytes, then padded with "~" to `size`."""
    while len(text.encode("utf-8")) > size:
        text = text[:-1]
    data = text.encode("utf-8")
    return data + b"~" * (size - len(data))


@st.composite
def rewrites(draw) -> tuple[bytes | None, str]:
    """A file's prior bytes (None: no file) and the text written over them."""
    new = draw(TEXTS)
    size = len(new.encode("utf-8"))
    relation = draw(st.sampled_from(RELATIONS if size else RELATIONS[:2] + RELATIONS[3:]))
    if relation == "absent":
        return None, new
    low, high = {
        "empty": (0, 0),
        "shorter": (0, size - 1),
        "same length": (size, size),
        "longer": (size + 1, size + 64),
    }[relation]
    return resized(draw(TEXTS), draw(st.integers(low, high))), new


@given(rewrites(), st.lists(st.integers(0, 64), max_size=3))
def test_writes_the_bytes_and_mode_path_write_text_leaves(case, cuts):
    prior, new = case
    bounds = [0, *sorted(cuts), None]  # `new` cut into blocks, some of them empty
    with tempfile.TemporaryDirectory() as work:
        expected, written = Path(work, "expected"), Path(work, "written")
        if prior is not None:
            expected.write_bytes(prior)
            written.write_bytes(prior)
        expected.write_text(new, encoding="utf-8")
        write_blocks(written, [new[start:stop] for start, stop in zip(bounds, bounds[1:])])
        assert written.read_bytes() == expected.read_bytes() == new.encode("utf-8")
        assert written.stat().st_mode == expected.stat().st_mode


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000], ids=oct)
def test_a_new_file_gets_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "expected", "w"):
            pass
        write_text(tmp_path / "written", "x")
    finally:
        os.umask(old)
    assert (tmp_path / "written").stat().st_mode == (tmp_path / "expected").stat().st_mode


def test_an_existing_file_keeps_its_mode(tmp_path):
    path = tmp_path / "private"
    path.write_text("old contents, longer than the new")
    path.chmod(0o600)
    write_text(path, "new")
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_text() == "new"


def test_a_log_of_several_blocks_over_a_longer_file_leaves_its_bytes_and_the_old_mode(tmp_path, monkeypatch):
    monkeypatch.setattr(runlog, "_BLOCK", 4)
    log = orchestrate(load_scenario(CANONICAL_SCENARIOS[1]), RunConfig()).log
    path = tmp_path / "run.jsonl"
    path.write_text(log.to_jsonl() + "an older and longer log\n" * 10, encoding="utf-8")
    path.chmod(0o600)
    log.write(path)
    assert path.read_bytes() == log.to_jsonl().encode("utf-8")
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_writes_the_target_of_a_symlink_and_keeps_the_link(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("old contents, longer than the new")
    link.symlink_to(target)
    write_text(link, "new")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "new"


def test_writes_to_dev_null():
    write_text(os.devnull, "discarded\n")


def test_writes_to_a_fifo(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_text(fifo, "through the pipe é\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == ["through the pipe é\n".encode("utf-8")]


def test_every_file_the_package_writes_is_opened_without_truncation(tmp_path, monkeypatch):
    """Once per file, a log of several blocks too."""
    monkeypatch.setattr(runlog, "_BLOCK", 4)
    opened = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        opened.append((Path(path).name, flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    scenario = load_scenario(CANONICAL_SCENARIOS[1])
    orchestrate(scenario, RunConfig()).log.write(tmp_path / "library.jsonl")
    dump_scenario(scenario, tmp_path / "scenario.json")
    result = CliRunner().invoke(
        main,
        ["run", str(CANONICAL_SCENARIOS[1]), "--report", str(tmp_path / "report.json"), "--log", str(tmp_path / "cli.jsonl")],
    )
    assert result.exit_code == 0, result.output
    assert [name for name, _ in opened] == ["library.jsonl", "scenario.json", "report.json", "cli.jsonl"]
    for name, flags in opened:
        assert flags & os.O_TRUNC == 0, name
        assert flags & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT, name


def oserror_of(fn, *args) -> str | None:
    """`str` of the OSError `fn(*args)` raises, or None."""
    try:
        fn(*args)
    except OSError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


# names passed as they are, relative to the directory, since a joined path drops a trailing slash
LITERAL_NAMES = ("", "newdir/", "file/", "dir/", "link_to_new/", "file/new.txt/", "missing/new/")


@pytest.mark.parametrize(
    "name",
    [
        "new.txt", "file", "dir", "missing/new.txt", "file/new.txt", "link_to_new", "link_into_missing",
        pytest.param("", id="empty"), *LITERAL_NAMES[1:],
    ],
)
def test_check_writable_raises_what_the_write_would_without_creating_a_file(tmp_path, monkeypatch, name):
    (tmp_path / "file").write_text("old", encoding="utf-8")
    (tmp_path / "dir").mkdir()
    (tmp_path / "link_to_new").symlink_to(tmp_path / "dir" / "new.txt")  # dangling, its directory exists
    (tmp_path / "link_into_missing").symlink_to(tmp_path / "missing" / "new.txt")
    monkeypatch.chdir(tmp_path)
    path = name if name in LITERAL_NAMES else str(tmp_path / name)
    before = sorted(tmp_path.rglob("*"))
    checked = oserror_of(check_writable, path)
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text(encoding="utf-8") == "old"
    assert checked == oserror_of(write_text, path, "new")
    assert (checked is None) == (name in ("new.txt", "file", "link_to_new"))


def test_check_writable_on_a_read_only_filesystem_raises_erofs(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    monkeypatch.setattr(os, "statvfs", lambda path: os.statvfs_result((0,) * 8 + (os.ST_RDONLY, 0)))
    with pytest.raises(OSError) as raised:
        check_writable(tmp_path / "new.txt")
    assert raised.value.errno == errno.EROFS
