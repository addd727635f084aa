"""``python -m seqaccel``: the same command line as the ``seqaccel`` script."""
from .cli import run

if __name__ == "__main__":
    run()
