"""`python3 -m lorabound` runs the command-line interface."""

import sys

from .cli import main

sys.exit(main())
