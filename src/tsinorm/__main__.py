"""`python -m tsinorm`: the same command as the `tsinorm` console script."""
from .cli import entry

if __name__ == "__main__":
    entry()
