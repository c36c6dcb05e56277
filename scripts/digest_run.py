"""Digest of a run directory: one ``sha256  relative-path`` line per file.

Prints one line per file under DIR, sorted by path, so two runs compare with
``diff``:

    python scripts/digest_run.py A > a.txt
    python scripts/digest_run.py B > b.txt
    diff a.txt b.txt

Every ``config_resolved.txt`` echoes the paths its command was given; a value
that names a path inside DIR is hashed as ``<run>/`` plus its path relative
to DIR, so runs written to different directories digest alike. Run it from
the directory the run was started in when the run was given relative paths.
"""

import argparse
import hashlib
import os
import sys

from protodensity.config import RESOLVED_CONFIG_NAME


def masked_config(text: str, root: str) -> str:
    """``text`` with each ``key = value`` line whose value is a path inside
    ``root`` rewritten relative to it."""
    lines = []
    for line in text.splitlines(keepends=True):
        key, sep, value = line.rstrip("\n").partition(" = ")
        path = os.path.abspath(value)
        if sep and os.sep in value and os.path.commonpath([root, path]) == root:
            line = f"{key} = <run>/{os.path.relpath(path, root)}\n"
        lines.append(line)
    return "".join(lines)


def digest_lines(run_dir: str) -> list[str]:
    root = os.path.abspath(run_dir)
    lines = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                blob = f.read()
            if name == RESOLVED_CONFIG_NAME:
                blob = masked_config(blob.decode(), root).encode()
            lines.append(f"{hashlib.sha256(blob).hexdigest()}  "
                         f"{os.path.relpath(path, root)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir", metavar="DIR", help="run directory to digest")
    args = parser.parse_args()
    if not os.path.isdir(args.run_dir):
        print(f"error: {args.run_dir} is not a directory", file=sys.stderr)
        return 1
    print("\n".join(digest_lines(args.run_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
