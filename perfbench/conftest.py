"""Make the program source and the benchmark's modules importable."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

harness.require_source()
