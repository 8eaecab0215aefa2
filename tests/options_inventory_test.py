#!/usr/bin/env python3
"""Fails when an options field has no caller outside the tests.

Parses every `struct *Options` / `struct *Config` in src/**/*.h
(nested ones such as `ExpectedCostEvaluator::Options` included) and
collects its data members. A field counts as set when some file under
src/, examples/, bench/ or e2ebench/ assigns it: `.f =`, `.f.g =` (a
member of a nested struct) or `&x.f` (a flag binding), except through a
receiver ending in `_` (a class clamping its own stored copy, as
TenantRegistry does with `options_.f = 1`). Every field that
no such file sets must be on ALLOWLIST below, with the reason it is
kept; anything else is a knob only tests turn, which belongs in a named
constant next to the code that reads it.

Matching is by field name, so a field whose name another struct's field
shares and sets slips through: the check is a tripwire, not a proof.
The allowlist is kept exact: an entry whose field is gone, or that a
shipped file now sets, fails the check too.

Usage: python3 tests/options_inventory_test.py [REPO_ROOT]
"""

import os
import re
import sys

ROOTS = ("src", "examples", "bench", "e2ebench")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")

# Fields that no shipped file sets, kept on purpose, keyed
# "Struct::field"; a nested struct is named by its enclosing class too.
ALLOWLIST = {
    "CheckpointOptions::sync":
        "durability flush; on by default, logic-only tests switch it off",
    "RetryOptions::sleeper":
        "the test clock: tests record the backoff schedule instead of "
        "sleeping",
    "RetryOptions::base_backoff":
        "deployment tuning, documented in docs/operations.md",
    "RetryOptions::max_backoff":
        "deployment tuning, documented in docs/operations.md",
    "IngestOptions::metrics":
        "the test registry: shipped runs meter into the process-wide "
        "default, tests read exact retry and checkpoint counts from a "
        "private one",
    "RegistryOptions::metrics":
        "the test registry: shipped servers meter into the process-wide "
        "default, tests read exact stats() from a private one",
    "RegistryOptions::degrade_after_failures":
        "deployment tuning of the serve watchdog, documented in "
        "docs/operations.md; tests drive it at 1, 2 and 100",
    "RegistryOptions::latency_sample_every":
        "deployment tuning of latency sampling; its default of 16 is the "
        "BM_ServeCentersQueryCached row, and a test samples every query",
    "CertainSolverOptions::epsilon":
        "the paper's epsilon of the plugged (1+eps) certain solver",
    "UnassignedSearchOptions::pipeline":
        "e2ebench's solve workload reads it; goes with the next benchmark "
        "change",
    "MetricCheckOptions::exhaustive_limit":
        "option of a test oracle (metric::CheckMetricAxioms)",
    "MetricCheckOptions::num_samples":
        "option of a test oracle (metric::CheckMetricAxioms)",
    "MetricCheckOptions::relative_slack":
        "option of a test oracle (metric::CheckMetricAxioms)",
    "BruteForceCostOptions::max_realizations":
        "option of a test oracle (the brute-force expected costs)",
}

STRUCT_RE = re.compile(r"\bstruct\s+(\w*(?:Options|Config))\s*\{")
SCOPE_RE = re.compile(r"\b(?:class|struct)\s+(\w+)[^;{()]*\{")
SKIP_PREFIXES = ("using ", "static ", "friend ", "enum ", "struct ", "class ",
                 "template", "typedef ")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", " ", text)


def strip_templates(text):
    """Drops <...> template argument lists, nested ones too."""
    previous = None
    while previous != text:
        previous = text
        text = re.sub(r"<[^<>]*>", " ", text)
    return text


def field_name(statement):
    """The data member a statement declares, or None."""
    statement = re.sub(r"\b(public|private|protected)\s*:", " ", statement)
    statement = " ".join(statement.split())
    if statement.startswith(SKIP_PREFIXES):
        return None
    declarator = strip_templates(re.split(r"[={]", statement, maxsplit=1)[0])
    if "(" in declarator or len(declarator.split()) < 2:
        return None  # A member function, or not a declaration.
    match = re.search(r"(\w+)\s*(?:\[[^\]]*\])?\s*$", declarator)
    return match.group(1) if match else None


def statements(body):
    """Splits a struct body into its top-level statements. Brace
    initializers and nested definitions stay inside their statement; a
    member function body ends its statement."""
    current, depth = [], 0
    for c in body:
        if c == ";" and depth == 0:
            yield "".join(current)
            current = []
            continue
        current.append(c)
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            text = "".join(current)
            head = strip_templates(text.split("{", 1)[0])
            if depth == 0 and "(" in head and "=" not in head:
                current = []  # A member function with an inline body.
    yield "".join(current)


def body_end(text, start):
    """The index just past the brace that closes the body opened before
    `start`."""
    depth, end = 1, start
    while depth > 0:
        depth += {"{": 1, "}": -1}.get(text[end], 0)
        end += 1
    return end


def struct_fields(text):
    """Yields (struct, field) for every options/config struct in text."""
    text = strip_comments(text)
    scopes = [(m.start(), body_end(text, m.end()), m.group(1))
              for m in SCOPE_RE.finditer(text)]
    for match in STRUCT_RE.finditer(text):
        end = body_end(text, match.end())
        name = match.group(1)
        enclosing = [scope for scope in scopes
                     if scope[0] < match.start() and end <= scope[1]]
        if enclosing:
            name = max(enclosing)[2] + "::" + name
        for statement in statements(text[match.end():end - 1]):
            field = field_name(statement)
            if field is not None:
                yield name, field


def source_files(repo, roots):
    for root in roots:
        for directory, _, names in os.walk(os.path.join(repo, root)):
            for name in sorted(names):
                if name.endswith(SOURCE_SUFFIXES):
                    yield os.path.join(directory, name)


def main():
    repo = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    fields = set()
    for path in source_files(repo, ("src",)):
        if path.endswith(".h"):
            with open(path, encoding="utf-8") as f:
                fields.update(struct_fields(f.read()))

    shipped = []
    for path in source_files(repo, ROOTS):
        with open(path, encoding="utf-8") as f:
            shipped.append(strip_comments(f.read()))
    shipped = "\n".join(shipped)

    def is_set(name):
        # A receiver ending in `_` is a class rewriting its own stored
        # copy (a clamp such as `options_.queue_capacity = 1`), not a
        # caller choosing a value.
        pattern = (r"(?<!_)\.%s\s*=(?!=)|(?<!_)\.%s\.[\w.]*\w\s*=(?!=)|"
                   r"&\s*[\w.]+\.%s\b" % (name, name, name))
        return re.search(pattern, shipped) is not None

    keys = {"%s::%s" % pair for pair in fields}
    unset = {key for key in keys if not is_set(key.split("::")[-1])}

    errors = []
    for key in sorted(unset - set(ALLOWLIST)):
        errors.append("%s: no file under %s sets it; fold it into a named "
                      "constant or add it to ALLOWLIST with a reason" %
                      (key, ", ".join(ROOTS)))
    for key in sorted(ALLOWLIST):
        if key not in keys:
            errors.append("ALLOWLIST entry %s: no such field" % key)
        elif key not in unset:
            errors.append("ALLOWLIST entry %s: now set by a shipped file, "
                          "drop the entry" % key)

    print("options inventory: %d fields in %d structs, %d unset by shipped "
          "files, %d allowlisted" %
          (len(keys), len({s for s, _ in fields}), len(unset),
           len(ALLOWLIST)))
    for error in errors:
        print("FAIL " + error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
