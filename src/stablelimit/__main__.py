"""``python -m stablelimit`` and the ``stablelimit`` script: one command
in one process, which then ends with ``os._exit`` and no interpreter
teardown.

Teardown would free every module dict and cache one object at a time,
for nothing: the process ends anyway.  Skipping it loses nothing because
the package registers no ``atexit`` handler and starts no thread, an
``--out`` file is closed by its ``with`` before ``cli.main`` returns, and
stdout and stderr are flushed here first.
"""

import gc
import os
import sys


def main() -> None:
    """Run the command line with the cyclic collector off and end the
    process with its exit code; never returns."""
    gc.disable()    # the process ends after one run: its cycles die with it
    from .cli import main as cli_main
    code = cli_main()
    for stream in filter(None, (sys.stdout, sys.stderr)):   # None: closed
        try:
            stream.flush()
        except OSError:     # cli has reported the failed write
            pass
    os._exit(code)


if __name__ == "__main__":
    main()
