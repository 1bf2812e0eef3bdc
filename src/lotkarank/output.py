"""Output files written whole or not at all.

Every file a lotkarank command writes (index, run files, eval reports,
analyze CSVs) goes through ``write_files``: the bytes go to temporary
files beside their paths, renamed onto them only once all are written. A
command that fails while writing leaves no truncated file, and a file
that was already there keeps its old contents.
"""
import errno
import os


def write_files(files):
    """Write each (path, bytes-like) pair: every temporary file first, then every rename.

    A path that exists must be a regular file, or a symlink to one (which is
    replaced, not written through): IsADirectoryError for a directory and
    ValueError for a FIFO, socket or device, before anything is written. On
    any exception the temporary files left are removed; an OSError from
    creating or renaming one names its path alone. A rename that fails after
    others leaves the files before it committed.
    """
    files = [(os.fspath(path), data) for path, data in files]
    for path, _ in files:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if os.path.exists(path) and not os.path.isfile(path):
            raise ValueError(f"{path} exists and is not a regular file")
    temporary = []  # the temporary files not yet renamed, in the order of files
    try:
        for path, data in files:
            tmp = f"{path}.{os.urandom(4).hex()}.tmp"
            try:
                fout = open(tmp, "xb")
            except OSError as exc:  # name the path asked for, not the temporary one
                raise OSError(exc.errno, exc.strerror, path) from None
            temporary.append(tmp)
            with fout:
                fout.write(data)
        for path, _ in files:
            try:
                os.replace(temporary[0], path)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            del temporary[0]
    except BaseException:
        for tmp in temporary:
            os.unlink(tmp)
        raise
