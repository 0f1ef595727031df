"""``python -m lobexec``: the lobexec command line."""

from .cli import console_main

console_main()
