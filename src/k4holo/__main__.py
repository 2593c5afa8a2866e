"""Entry point of ``python -m k4holo`` and of the installed ``k4holo`` script."""
import gc

from .cli import main


def run() -> int:
    """Run the command line, with every start-up object frozen first.

    By now every module, class and function is loaded, and all of them live
    until exit.  gc.freeze() moves them out of the collector's generations,
    so no collection walks them again, the one at interpreter exit
    included.  The freeze is here and not in cli.main, which tests call
    in-process: there it would pin every object then alive for the rest of
    the session.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
