"""``python -m codedcache``: the same command line as the ``codedcache`` script."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
