"""Entry point of ``python -m k4holo`` and of the installed ``k4holo`` script."""
import gc
import os
import sys

from .cli import main


def run() -> None:
    """Run the command line, with every start-up object frozen first, and
    end the process without interpreter teardown.

    By now every module, class and function is loaded, and all of them live
    until exit.  gc.freeze() moves them out of the collector's generations,
    so the collections during the command do not walk them.  Once main has
    returned, stdout holds the complete output and every file it wrote is
    closed, so run flushes stdout and stderr (a stream closed at start is
    None and skipped; a failed flush is ignored, as main does) and ends the
    process with os._exit: teardown, its collection included, never runs.
    Nothing in the package registers an exit handler that this would skip.
    An exception that escapes main takes the normal exit path.  The freeze
    and the exit are here and not in cli.main, which tests call in-process:
    there the freeze would pin every object then alive for the rest of the
    session, and the exit would end the session.
    """
    gc.freeze()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
