"""Locating optional strongly-regular-graph dataset files.

Dataset files are graph6, one graph per line, named srg-<n>-<d>-<alpha>-<beta>.g6
inside the directory given by the WALKGI_SRG_DATA environment variable, or
data/srg/ at the repository root.  They are optional: tests that need a file
that is not present skip with an explicit reason.
"""

import os
from pathlib import Path

from walkgi import read_dataset

REPO_DATA = Path(__file__).resolve().parent.parent / "data" / "srg"


def dataset_dir() -> Path:
    env = os.environ.get("WALKGI_SRG_DATA")
    return Path(env) if env else REPO_DATA


def srg_path(n: int, d: int, alpha: int, beta: int) -> Path:
    return dataset_dir() / f"srg-{n}-{d}-{alpha}-{beta}.g6"


def load_srg_group(n: int, d: int, alpha: int, beta: int, expected: int):
    """All graphs of the conventional dataset file, or None when absent.

    A present file with the wrong member count is an error, not a skip:
    silently running on a stale or truncated download would make the
    acceptance numbers meaningless.
    """
    path = srg_path(n, d, alpha, beta)
    if not path.is_file():
        return None
    entries, failures = read_dataset(path)
    if failures:
        raise AssertionError(f"malformed dataset line: {failures[0]}")
    if len(entries) != expected:
        raise AssertionError(f"{path}: expected {expected} graphs, found {len(entries)}")
    return entries
