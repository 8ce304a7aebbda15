"""Writing a whole file over an older one in place, and checking beforehand that it can be.

Opening a file that holds data with `O_TRUNC` frees its blocks, and on ext4
(`auto_da_alloc`, the default) closing it then starts writeback of the new
data: rewriting a CLI call's report and log that way cost more than its load.
"""

from __future__ import annotations

import errno
import os
import stat
from pathlib import Path
from typing import Iterable


def write_blocks(path: str | Path, blocks: Iterable[str]) -> None:
    """Write the concatenation of `blocks` to `path` as UTF-8, encoding one block at a
    time, leaving the bytes and mode `Path.write_text` leaves.

    An existing file is written over and then cut to the new length, so a process
    killed mid-write, or a block that raises, can leave old bytes after the new ones.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as file:
        for block in blocks:
            file.write(block.encode("utf-8"))
        if stat.S_ISREG(os.fstat(file.fileno()).st_mode):  # a device or FIFO cannot be cut
            file.truncate()  # at the end of what was written


def write_text(path: str | Path, text: str) -> None:
    write_blocks(path, (text,))


def check_writable(path: str | Path) -> None:
    """Raise the OSError `write_text(path, ...)` would raise for an empty path, a missing
    directory, a directory, a name ending in a slash, no write permission or a read-only
    filesystem, without creating a file."""
    name = os.fspath(path)
    try:
        if name.endswith(os.sep):  # open(2) walks to the directory, then refuses the slash
            os.stat(os.path.join(os.path.dirname(name.rstrip(os.sep)) or os.curdir, ""))
        target, code = name, errno.EISDIR if name.endswith(os.sep) or stat.S_ISDIR(os.stat(name).st_mode) else 0
    except FileNotFoundError:  # a missing file, or a dangling link's target, is made in its directory
        target = os.path.dirname(os.path.realpath(name))
        code = 0 if name and os.path.isdir(target) else errno.ENOENT
    except NotADirectoryError:  # a file on the way to the name
        code = errno.ENOTDIR
    if not code and not os.access(target, os.W_OK):
        code = errno.EROFS if os.statvfs(target).f_flag & os.ST_RDONLY else errno.EACCES
    if code:
        raise OSError(code, os.strerror(code), name)


def file_identity(path: str | Path) -> tuple[int, int] | str:
    """What paths to one file share: its device and inode if it exists, else the resolved path."""
    try:
        info = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return (info.st_dev, info.st_ino)
