"""Load every non-blank line of the given files with Python's json module.

Usage: python3 .github/check_json.py PATH_OR_GLOB...

A parser that is not the program's own checks every writer of the sweep
service's JSON documents: journals, spool batch lines, events, status.json
and rollups. A plain path must name a file holding at least one document;
a glob may match no file or empty files (a spool writes events only for
rejected or duplicate batches, and a shard's progress stream may be empty).
"""
import glob
import json
import sys

for pattern in sys.argv[1:]:
    is_glob = glob.has_magic(pattern)
    paths = sorted(glob.glob(pattern))
    assert paths or is_glob, f'{pattern}: no such file'
    for path in paths:
        with open(path) as f:
            docs = [json.loads(line) for line in f if line.strip()]
        assert docs or is_glob, f'{path}: no JSON document'
        print(f'{path}: {len(docs)} JSON document(s)')
