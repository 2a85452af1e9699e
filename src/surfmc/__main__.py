"""``python -m surfmc``: the command line (see ``surfmc.cli``)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
