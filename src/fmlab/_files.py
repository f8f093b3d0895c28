"""How a whole file reaches disk: written to a temp file beside the target,
then renamed over it, so a failed or killed run leaves the old file or the
new one, never a partial one. There is no fsync, so it does not guard
against power loss. Rasters are written in place instead (see rasters).
"""
import os


def write_file(path, chunks) -> None:
    """Replace path with chunks: str chunks encoded as ASCII, or buffers.
    Every chunk is encoded before the temp file is made, and a failure
    removes the temp file. The file gets the mode a plain open() gives."""
    data = [c.encode("ascii") if isinstance(c, str) else c for c in chunks]
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
