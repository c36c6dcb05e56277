"""Digest of a run directory: one ``sha256  relative-path`` line per file.

Prints one line per file under DIR, sorted by path. Given two directories,
it compares them instead: one ``differs  path``, ``only in A  path`` or
``only in B  path`` line per relative path whose digests differ or that
exists on one side only, and exit code 1 if it printed anything:

    python scripts/digest_run.py A
    python scripts/digest_run.py A B

A ``differs`` line of two PDTF tensors (``.pdt``) or two CSV tables goes on
to say by how much: the largest absolute difference and the largest
relative one, |a - b| / max(|a|, |b|), each with where it is (the tensor
element, or the CSV data row and column). Two tensors of different shapes
print both shapes, and two tables print their first difference that is not
between two numbers; any other file prints ``differs`` alone.

Every ``config_resolved.txt`` echoes the paths its command was given; a value
that names a path inside DIR is hashed as ``<run>/`` plus its path relative
to DIR, so runs written to different directories digest alike. Run it from
the directory the run was started in when the run was given relative paths.
"""

import argparse
import csv
import hashlib
import math
import os
import sys

import numpy as np

# this checkout's package, never an installed one
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
from protodensity.config import RESOLVED_CONFIG_NAME  # noqa: E402
from protodensity.tensor import load_tensor  # noqa: E402


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


def _largest(pairs) -> str:
    """The largest absolute and relative difference of the ``(where, a, b)``
    pairs of numbers, each with the first ``where`` that has it; '' for no
    pairs."""
    best_abs = best_rel = None
    for where, a, b in pairs:
        diff = abs(a - b)
        scale = max(abs(a), abs(b))
        rel = diff / scale if scale else 0.0
        if best_abs is None or diff > best_abs[0]:
            best_abs = (diff, where)
        if best_rel is None or rel > best_rel[0]:
            best_rel = (rel, where)
    if best_abs is None:
        return ""
    return (f"max abs {best_abs[0]:.3e} at {best_abs[1]}  "
            f"max rel {best_rel[0]:.3e} at {best_rel[1]}")


def tensor_note(path_a: str, path_b: str) -> str:
    """How two PDTF tensors differ; '' if one does not load."""
    try:
        a, b = load_tensor(path_a), load_tensor(path_b)
    except ValueError:
        return ""
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    shape = a.shape
    a, b = a.astype(np.float64).reshape(-1), b.astype(np.float64).reshape(-1)
    # every element whose bits differ, a zero's sign included
    where = np.flatnonzero((a != b) | (np.signbit(a) != np.signbit(b)))
    return _largest((list(map(int, np.unravel_index(i, shape))), float(a[i]), float(b[i]))
                    for i in where.tolist())


def _number(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def csv_note(path_a: str, path_b: str) -> str:
    """How two CSV tables with a header row differ; '' if one does not
    parse."""
    try:
        tables = []
        for path in (path_a, path_b):
            with open(path, newline="") as f:
                tables.append(list(csv.reader(f)))
    except (UnicodeDecodeError, csv.Error):
        return ""
    a, b = tables
    if len(a) != len(b):
        return f"{len(a) - 1} rows vs {len(b) - 1}"
    if a[:1] != b[:1]:
        return "header differs"
    header = a[0] if a else []
    numbers = []
    for n, (row_a, row_b) in enumerate(zip(a[1:], b[1:]), start=1):
        if len(row_a) != len(row_b):
            return f"row {n}: {len(row_a)} cells vs {len(row_b)}"
        for col, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            name = header[col] if col < len(header) else str(col)
            vx, vy = _number(x), _number(y)
            if vx is None or vy is None:
                return f"row {n} column {name}: {x!r} vs {y!r}"
            numbers.append((f"row {n} column {name}", vx, vy))
    return _largest(numbers)


def numeric_note(path_a: str, path_b: str) -> str:
    """How two differing files differ, for PDTF tensors (``.pdt``) and CSV
    tables; '' for any other file."""
    if path_a.endswith(".pdt"):
        return tensor_note(path_a, path_b)
    if path_a.endswith(".csv"):
        return csv_note(path_a, path_b)
    return ""


def emit(lines: list[str]) -> None:
    """Print ``lines``; a reader that closes early (``| head``) just ends
    the output."""
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # stdout's flush at exit would fail the same way
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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
        emit([f"{digest}  {path}" for path, digest in sorted(found[0].items())])
        return 0
    lines = diff_lines(*found)
    for n, line in enumerate(lines):
        kind, path = line.split("  ", 1)
        note = kind == "differs" and numeric_note(
            *(os.path.join(run_dir, path) for run_dir in args.run_dirs))
        if note:
            lines[n] = f"{line}  {note}"
    if lines:
        emit(lines)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
