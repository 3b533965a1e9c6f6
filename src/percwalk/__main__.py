"""``python -m percwalk``: run the command-line interface."""
from .harness.cli import main

if __name__ == "__main__":
    main()
