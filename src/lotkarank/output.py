"""Output files written whole or not at all.

Every file a lotkarank command writes (index, run files, eval reports,
analyze CSVs) goes through ``whole_file``: the bytes go to a temporary
file beside the target, which is renamed onto the target only once it is
complete. A command that fails part-way leaves no truncated file, and a
file that was already there keeps its old contents.
"""
import os
from contextlib import contextmanager


@contextmanager
def whole_file(path):
    """A binary file to write the contents of path into, renamed onto path when the block ends.

    On any exception the temporary file is removed, path is left as it
    was and the exception propagates; an OSError from creating the
    temporary file or renaming it onto path names path alone.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        fout = open(tmp, "xb")
    except OSError as exc:  # name the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fout:
            yield fout
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(tmp)
        raise
