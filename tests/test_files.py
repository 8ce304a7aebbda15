"""The in-place file writer against `Path.write_text`, the call it replaces."""

from __future__ import annotations

import os
import stat
import tempfile
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from taskweave import RunConfig, load_scenario, orchestrate
from taskweave._files import write_text
from taskweave.cli import main
from taskweave.scenario import dump_scenario

from conftest import CANONICAL_SCENARIOS

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


@given(rewrites())
def test_writes_the_bytes_and_mode_path_write_text_leaves(case):
    prior, new = case
    with tempfile.TemporaryDirectory() as work:
        expected, written = Path(work, "expected"), Path(work, "written")
        if prior is not None:
            expected.write_bytes(prior)
            written.write_bytes(prior)
        expected.write_text(new, encoding="utf-8")
        write_text(written, new)
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
