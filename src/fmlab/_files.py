"""How whole files reach disk: each is written to a temp file beside its
target, then renamed over it, so a failed or killed run leaves the old file
or the new one, never a partial one. Files that belong together are staged
together: every temp file is written before the first rename. There is no
fsync, so it does not guard against power loss. Rasters are written in
place instead (see rasters).
"""
import os


def write_file(path, chunks, *more) -> None:
    """Replace path with chunks, then each further (path, chunks) pair of
    more, renamed in that order: str chunks encoded as ASCII, or buffers.
    Every chunk is encoded before the first temp file is made and every temp
    file is written before the first rename, so a failure up to there leaves
    every target as it was. A failure removes the temp files not yet
    renamed. The files get the mode a plain open() gives."""
    outputs = [(path, chunks), *more]
    data = [[c.encode("ascii") if isinstance(c, str) else c for c in body] for _, body in outputs]
    pending = []  # (temp file, target) pairs not yet renamed
    try:
        for (target, _), blob in zip(outputs, data):
            tmp = f"{os.fspath(target)}.{os.urandom(8).hex()}.tmp"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            pending.append((tmp, target))
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(blob)
        while pending:
            os.replace(*pending[0])
            del pending[0]
    except BaseException:
        for tmp, _ in pending:
            os.unlink(tmp)
        raise
