#!/usr/bin/env python3
"""Fails when a library source file is reachable from no shipped program.

Walks the quoted-#include closure from every source file under
examples/, bench/ and e2ebench/. A reached header src/X.h also reaches
its implementation src/X.cc. Every src/**/*.cc that the walk does not
reach must be on ALLOWLIST below, with the reason it is kept; anything
else is dead library code that only tests exercise.

The allowlist is kept exact: an entry whose file is gone, or that the
walk now reaches, fails the check too.

Usage: python3 tests/reachability_test.py [REPO_ROOT]
"""

import os
import re
import sys

ROOTS = ("examples", "bench", "e2ebench")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")

# Library sources that no shipped program reaches, kept on purpose.
# Paths are relative to src/.
ALLOWLIST = {
    "metric/metric_checker.cc":
        "test oracle: GraphSpace's shortest-path metric is checked against it",
    "metric/matrix_space.cc":
        "test fixture: the explicit-matrix space of the general-metric tests",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def resolve(include, including_file, repo):
    """Returns the repo-relative path a quoted include names, or None."""
    candidates = (
        os.path.join("src", include),
        include,
        os.path.join(os.path.dirname(including_file), include),
    )
    for candidate in candidates:
        path = os.path.normpath(candidate)
        if os.path.isfile(os.path.join(repo, path)):
            return path
    return None


def reached_files(repo):
    """The repo-relative paths of every file the include walk reaches."""
    pending = []
    for root in ROOTS:
        for directory, _, names in os.walk(os.path.join(repo, root)):
            for name in sorted(names):
                if name.endswith(SOURCE_SUFFIXES):
                    full = os.path.join(directory, name)
                    pending.append(os.path.relpath(full, repo))
    reached = set()
    while pending:
        path = pending.pop()
        if path in reached:
            continue
        reached.add(path)
        if path.startswith("src" + os.sep) and path.endswith(".h"):
            implementation = path[:-2] + ".cc"
            if os.path.isfile(os.path.join(repo, implementation)):
                pending.append(implementation)
        with open(os.path.join(repo, path), encoding="utf-8") as f:
            for line in f:
                match = INCLUDE_RE.match(line)
                if not match:
                    continue
                target = resolve(match.group(1), path, repo)
                if target is not None:
                    pending.append(target)
    return reached


def main():
    repo = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    src = os.path.join(repo, "src")
    library = set()
    for directory, _, names in os.walk(src):
        for name in names:
            if name.endswith(".cc"):
                library.add(os.path.relpath(os.path.join(directory, name), src))

    reached = {os.path.relpath(path, "src")
               for path in reached_files(repo)
               if path.startswith("src" + os.sep)}

    errors = []
    for path in sorted(library - reached - set(ALLOWLIST)):
        errors.append("src/%s: reached from no file under %s; delete it or "
                      "add it to ALLOWLIST with a reason" %
                      (path, ", ".join(ROOTS)))
    for path in sorted(ALLOWLIST):
        if path not in library:
            errors.append("ALLOWLIST entry src/%s: no such file" % path)
        elif path in reached:
            errors.append("ALLOWLIST entry src/%s: now reached, drop the "
                          "entry" % path)

    print("reachability: %d library sources, %d reached, %d allowlisted" %
          (len(library), len(library & reached), len(ALLOWLIST)))
    for error in errors:
        print("FAIL " + error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
