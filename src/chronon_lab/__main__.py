"""Process entry point: `python -m chronon_lab` and the `chronon-lab` script.

`run` first sets `OPENBLAS_NUM_THREADS=1` unless the environment already
names a count, then imports `cli`, and so NumPy. The package forms only
closed-form 2x2 products, yet without the variable OpenBLAS starts a worker
thread per extra CPU at import, which spins for about 100 ms of CPU (see
OpenBLAS's "Setting the number of threads using environment variables";
a process pinned to one CPU gets one thread anyway). The import is in
`run` because the `chronon-lab` script imports this module before it calls
`run`, so importing the module must load no NumPy.

`run` then freezes the garbage collector's current objects (`gc.freeze()`)
before it calls `cli.main`. They are then the ~21 300 objects that NumPy
and the modules every command runs (those `cli` imports) leave at import,
which live until the process ends; yet the interpreter's finalization runs
full collections over all of them, about 40 ms of every command. Frozen,
they are skipped. Objects the command itself creates are still tracked and
collected, among them the at most ~800 of the modules it imports when it
runs (`quantities`, `spectrum`, `kaon`, `json`, `hashlib`), and the
process ends as before: atexit handlers, stream flushes and exit codes are
unchanged.

Only this entry point sets the variable and freezes. `cli.main` does
neither, because tests, tools and library users call it in-process, where
NumPy may already be loaded and its environment and cycles are the
caller's.
"""

import gc
import os
import sys


def run() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
