"""``python -m seifinv ...`` runs the ``seifinv`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
