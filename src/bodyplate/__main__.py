"""``python -m bodyplate``: the command-line interface of
``verification_cli`` (the ``bodyplate`` console script)."""

import sys

from .verification_cli import cli_main

__all__ = ["cli_main"]

if __name__ == "__main__":
    sys.exit(cli_main())
