"""Tests of the benchmark's own code (``python -m pytest perfbench/tests``)."""

from perfbench.common import use_repo_sources

use_repo_sources()
