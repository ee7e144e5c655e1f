"""Process entry of ``python -m classlink`` and the ``classlink`` script."""

import atexit
import ctypes
import gc
import sys

from . import cli

# glibc mallopt parameters: the slack that the heap grows by and keeps at its
# top when it shrinks, and the request size from which memory is mapped
# apart from the heap.
M_TOP_PAD = -2
M_MMAP_THRESHOLD = -3
HEAP_TOP_PAD = 64 << 20
MMAP_THRESHOLD = 32 << 20  # the ceiling of glibc's own dynamic threshold


def keep_heap() -> None:
    """Keep up to 64 MiB of freed memory at the top of glibc's heap.

    The backbone's head allocates and frees a few MiB per chunk of pairs.
    With glibc's default padding the heap top is trimmed after each chunk,
    and the next chunk is served freshly zeroed pages again.  Setting the pad
    also freezes glibc's dynamic mmap threshold at its 128 KiB start, which
    would map every larger array apart from the heap and fault it in afresh,
    so the threshold is set to the 32 MiB that the dynamic one may climb to.
    A no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(M_TOP_PAD, HEAP_TOP_PAD)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def main(argv: list[str] | None = None) -> int:
    """Run one command in a process of its own.

    Besides the heap setting, the process skips interpreter shutdown's
    garbage collections: ``gc.freeze`` runs as an exit handler, before those
    collections, which then pass over every object alive at that point (the
    tens of thousands that numpy and the layers create).  Modules are
    still torn down, files closed and every other exit handler run.
    """
    keep_heap()
    atexit.register(gc.freeze)
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
