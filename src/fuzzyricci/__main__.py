"""``python -m fuzzyricci``: the same command line as the ``fuzzyricci`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
