"""``python -m loopminors ...`` runs the command-line interface."""
from .cli import main

raise SystemExit(main())
