"""Fresh interpreters for the tests that need one.

A child finds skipfree where its parent imported it from: the checkout's
src/ under PYTHONPATH=src, the installed copy when the suite runs against
an installed package.
"""

import os
import subprocess
import sys

import skipfree

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(skipfree.__file__)))


def run(*args):
    """`python *args` in a fresh interpreter, with its output captured as text."""
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True, text=True,
                          timeout=120)
