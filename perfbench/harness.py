"""In-process calls of the public CLI entry point, with a per-call deadline.

:func:`call_cli` runs ``curvcone.cli.main(argv)`` with stdin, stdout and
stderr swapped for in-memory streams, so a whole run does no file I/O.  The
stdout stand-in stamps every ``write`` with ``perf_counter``, which gives the
per-record latencies of streaming commands.

The deadline is a ``SIGALRM`` interval timer: the program's known hangs are
pure-Python loops, which a signal handler interrupts between bytecodes.
"""

from __future__ import annotations

import contextlib
import io
import signal
import sys
import time
from dataclasses import dataclass, field

#: failure reasons, in the order they are reported as ``cli.fail.<reason>``
FAIL_REASONS = ("deadline", "raised", "exit_code", "wrong")


class DeadlineExceeded(BaseException):
    """Raised inside the call when its deadline passes.

    A ``BaseException`` so that an ``except Exception`` in the program cannot
    swallow it and turn a hang into an ordinary error.
    """


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise :class:`DeadlineExceeded` in the body after ``seconds``.

    The previous ``SIGALRM`` handler and a stopped timer are restored on exit.
    """

    def on_alarm(signum, frame):
        raise DeadlineExceeded(seconds)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class _StampedOutput(io.StringIO):
    """In-memory text stream that records the time of every write."""

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []

    def write(self, s):
        self.stamps.append(time.perf_counter())
        return super().write(s)


@dataclass
class CallResult:
    """Outcome of one in-process CLI call.

    ``failure`` is ``None`` on exit code 0 and otherwise one of
    ``FAIL_REASONS`` (a workload's output check may later set ``"wrong"``).
    """

    start: float
    seconds: float
    code: int | None
    stdout: str
    stderr: str
    stamps: list[float] = field(default_factory=list)
    failure: str | None = None
    detail: str = ""


def call_cli(main, argv, stdin_text: str = "", deadline_s: float | None = None,
             expect_code: int = 0) -> CallResult:
    """Run ``main(argv)`` once; classify deadline misses, raises and exit codes."""
    out, err = _StampedOutput(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    code = failure = None
    detail = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if deadline_s is None:
                code = main(argv)
            else:
                with deadline(deadline_s):
                    code = main(argv)
    except DeadlineExceeded:
        failure = "deadline"
    except Exception as exc:  # the benchmark must outlive any failing call
        failure, detail = "raised", f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        sys.stdin = saved_stdin
    if failure is None and code != expect_code:
        failure, detail = "exit_code", f"exit {code}"
    return CallResult(start, seconds, code, out.getvalue(), err.getvalue(),
                      out.stamps, failure, detail)
