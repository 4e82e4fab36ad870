"""Crash-safe file writes shared by the report and cache writers."""

from __future__ import annotations

import os
import tempfile

# mkstemp creates files 0600; published files get the usual 0666 & ~umask
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def _atomic_write(path: str, data: str | bytes | bytearray):
    """Write text or bytes to path through a unique temp file and one rename.

    The temp file sits in the target directory, so concurrent writers never
    share it and the rename stays on one file system. A failed write
    removes it and leaves path as it was. When the temp file cannot be
    created (say, the directory is missing), the error names path.
    """
    directory, name = os.path.split(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory or ".", prefix=name + ".", suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as fh:
            fh.write(data)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
