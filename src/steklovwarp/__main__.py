"""Run the command-line harness: python -m steklovwarp <subcommand> [options]."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
