import gc


def main() -> int:
    """``python -m stablelimit`` and the ``stablelimit`` script: the command
    line with the cyclic collector off; returns the exit code."""
    gc.disable()    # the process ends after one run: its cycles die with it
    from .cli import main as cli_main
    code = cli_main()
    gc.freeze()     # interpreter shutdown then skips every object still alive
    return code


if __name__ == "__main__":
    raise SystemExit(main())
