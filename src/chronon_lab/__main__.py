"""Process entry point: `python -m chronon_lab` and the `chronon-lab` script.

`run` freezes the garbage collector's current objects (`gc.freeze()`)
before it calls `cli.main`. They are then the ~21 300 objects that NumPy
and the modules every command runs (those `cli` imports) leave at import,
which live until the process ends; yet the interpreter's finalization runs
full collections over all of them, about 40 ms of every command. Frozen,
they are skipped. Objects the command itself creates are still tracked and
collected, among them the at most ~800 of the modules it imports when it
runs (`quantities`, `spectrum`, `kaon`, `json`, `hashlib`), and the
process ends as before: atexit handlers, stream flushes and exit codes are
unchanged.

Only this entry point freezes. `cli.main` does not, because tests and
tools call it in-process, where a freeze would keep every cycle made up to
that call for the rest of the process.
"""

import gc
import sys

from .cli import main


def run() -> int:
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
