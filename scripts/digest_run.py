"""Digest of a run directory: one ``sha256  relative-path`` line per file.

Prints one line per file under DIR, sorted by path. Given two directories,
it compares them instead: one ``differs  path``, ``only in A  path`` or
``only in B  path`` line per relative path whose digests differ or that
exists on one side only, and exit code 1 if it printed anything:

    python scripts/digest_run.py A
    python scripts/digest_run.py A B

Every ``config_resolved.txt`` echoes the paths its command was given; a value
that names a path inside DIR is hashed as ``<run>/`` plus its path relative
to DIR, so runs written to different directories digest alike. Run it from
the directory the run was started in when the run was given relative paths.
"""

import argparse
import hashlib
import os
import sys

# this checkout's package, never an installed one
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
from protodensity.config import RESOLVED_CONFIG_NAME  # noqa: E402


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


def digests(run_dir: str) -> dict[str, str]:
    """The sha256 of every file under ``run_dir``, by its relative path."""
    root = os.path.abspath(run_dir)
    found = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                blob = f.read()
            if name == RESOLVED_CONFIG_NAME:
                blob = masked_config(blob.decode(), root).encode()
            found[os.path.relpath(path, root)] = hashlib.sha256(blob).hexdigest()
    return found


def diff_lines(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """One line per path of ``a`` or ``b`` whose digests are not equal."""
    lines = []
    for path in sorted(a.keys() | b.keys()):
        if path not in b:
            lines.append(f"only in A  {path}")
        elif path not in a:
            lines.append(f"only in B  {path}")
        elif a[path] != b[path]:
            lines.append(f"differs  {path}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dirs", metavar="DIR", nargs="+",
                        help="run directory to digest, or two to compare")
    args = parser.parse_args()
    if len(args.run_dirs) > 2:
        parser.error("give one run directory, or two to compare")
    for run_dir in args.run_dirs:
        if not os.path.isdir(run_dir):
            print(f"error: {run_dir} is not a directory", file=sys.stderr)
            return 1
    found = [digests(run_dir) for run_dir in args.run_dirs]
    if len(found) == 1:
        print("\n".join(f"{digest}  {path}" for path, digest in sorted(found[0].items())))
        return 0
    lines = diff_lines(*found)
    if lines:
        print("\n".join(lines))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
