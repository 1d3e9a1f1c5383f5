"""``python -m corners``: the ``corners`` command line without an install."""

from .cli import main

if __name__ == "__main__":
    main()
