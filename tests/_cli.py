"""Environment for the ``python -m esdkit`` subprocesses the tests start."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli_env() -> dict:
    """The current environment with this checkout's ``src`` first on
    ``PYTHONPATH``, so a subprocess imports the code under test without an
    installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env
