import gc
import os
import sys


def main() -> int:
    """``python -m stablelimit`` and the ``stablelimit`` script: the command
    line with the cyclic collector off; returns the exit code."""
    gc.disable()    # the process ends after one run: its cycles die with it
    from .cli import main as cli_main
    code = cli_main()
    try:
        sys.stdout.flush()
    except OSError:
        # cli has reported the failed write, whose bytes stay buffered;
        # shutdown's own flush then writes them nowhere, not failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()     # interpreter shutdown then skips every object still alive
    return code


if __name__ == "__main__":
    raise SystemExit(main())
