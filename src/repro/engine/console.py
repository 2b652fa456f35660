"""CLI console: ``logging``-backed output honoring ``--quiet``/``--verbose``.

``repro-campaign`` used to bare-``print`` its tables and status lines; this
module routes everything through one ``logging`` logger instead, so
``--quiet`` suppresses the narration (errors still reach stderr) and
``--verbose`` turns on the engine's debug chatter -- without changing what a
default invocation looks like.

Two details matter for testability:

* Handlers resolve ``sys.stdout``/``sys.stderr`` **at emit time**, not at
  handler construction, so pytest's ``capsys`` (which swaps the module
  attributes) sees every line.
* :func:`configure` is idempotent -- repeated ``main()`` invocations in one
  process (the CLI test-suite pattern) never stack handlers.
"""

from __future__ import annotations

import logging
import sys
from typing import Any, Callable, IO

#: The CLI logger; ``INFO`` lines go to stdout, ``WARNING`` and up to stderr.
LOGGER_NAME = "repro.campaign"

logger = logging.getLogger(LOGGER_NAME)


class _DeferredStreamHandler(logging.Handler):
    """Writes to whatever the resolver returns *now* (capsys-safe)."""

    def __init__(self, resolver: Callable[[], IO[str]]) -> None:
        super().__init__()
        self._resolver = resolver

    def emit(self, record: logging.LogRecord) -> None:
        try:
            stream = self._resolver()
            stream.write(self.format(record) + "\n")
            stream.flush()
        except Exception:  # pragma: no cover - mirror logging's resilience
            self.handleError(record)


class _BelowWarning(logging.Filter):
    def filter(self, record: logging.LogRecord) -> bool:
        return record.levelno < logging.WARNING


def configure(quiet: bool = False, verbose: bool = False) -> logging.Logger:
    """(Re)configure the CLI logger; returns it.

    ``quiet`` raises the threshold to WARNING (tables and status lines are
    suppressed, errors still print); ``verbose`` lowers it to DEBUG.  The
    message itself is the whole format -- the console is a narration
    channel, not a log file.
    """
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    out = _DeferredStreamHandler(lambda: sys.stdout)
    out.addFilter(_BelowWarning())
    err = _DeferredStreamHandler(lambda: sys.stderr)
    err.setLevel(logging.WARNING)
    formatter = logging.Formatter("%(message)s")
    out.setFormatter(formatter)
    err.setFormatter(formatter)
    logger.addHandler(out)
    logger.addHandler(err)
    logger.setLevel(logging.DEBUG if verbose
                    else logging.WARNING if quiet else logging.INFO)
    logger.propagate = False
    return logger


def _ensure_configured() -> None:
    if not logger.handlers:
        configure()


def info(message: Any = "") -> None:
    """A normal narration line (stdout; suppressed by ``--quiet``)."""
    _ensure_configured()
    logger.info("%s", message)


def debug(message: Any = "") -> None:
    """Detail shown only with ``--verbose``."""
    _ensure_configured()
    logger.debug("%s", message)


def error(message: Any = "") -> None:
    """An error line (stderr; survives ``--quiet``)."""
    _ensure_configured()
    logger.error("%s", message)
