#!/usr/bin/env python3
"""Fail when a `go test -run` pattern in ci.yml selects nothing.

A stress step such as `go test -race -count=10 -run 'A|B' ./pkg` keeps
passing after test A is renamed: it just stops running it. For every
`go test` command in the workflow that has a -run pattern and packages,
each alternative of the pattern must match at least one test that
`go test -list` finds in those packages. `-run '^$'` (the fuzz and
benchmark steps, which mean to run no test) is skipped.
"""
import re
import shlex
import subprocess
import sys

WORKFLOW = ".github/workflows/ci.yml"


def commands(text):
    """Yield the workflow's shell lines that invoke go test, continuations joined."""
    for line in re.sub(r"\\\n\s*", " ", text).splitlines():
        line = line.strip().removeprefix("run:").strip()
        if line.startswith("go test "):
            yield line


def main():
    failed = False
    checked = 0
    for cmd in commands(open(WORKFLOW).read()):
        args = shlex.split(cmd)
        pattern = None
        for i, a in enumerate(args):
            if a == "-run":
                pattern = args[i + 1]
            elif a.startswith("-run="):
                pattern = a[len("-run="):]
        pkgs = [a for a in args if a.startswith("./")]
        if pattern is None or pattern == "^$" or not pkgs:
            continue
        # The workflow's patterns are plain alternations; one with groups
        # is checked whole.
        alternatives = [pattern] if "(" in pattern else pattern.split("|")
        for alt in alternatives:
            out = subprocess.run(["go", "test", "-list", alt] + pkgs, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"go test -list {alt!r} {' '.join(pkgs)} failed:\n{out.stdout}{out.stderr}")
                failed = True
                continue
            checked += 1
            if not re.search(r"^(Test|Fuzz|Benchmark|Example)", out.stdout, re.M):
                print(f"-run {pattern!r}: {alt!r} matches no test in {' '.join(pkgs)}\n  ({cmd})")
                failed = True
    print(f"checked {checked} -run alternatives in {WORKFLOW}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
