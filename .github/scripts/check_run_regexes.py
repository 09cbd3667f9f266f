#!/usr/bin/env python3
"""Fail when a `go test -run` pattern in ci.yml selects nothing.

A stress step such as `go test -race -count=10 -run 'A|B' ./pkg` keeps
passing after test A is renamed: it just stops running it. For every
`go test` command in the workflow that has a -run pattern and packages,
each alternative of the pattern must match at least one test that
`go test -list` finds in those packages. `-run '^$'` (the fuzz and
benchmark steps, which mean to run no test) is skipped.

It first prints, per job, how many `go test` commands the job runs and
how many -run alternatives they name: a count to read, not a gate.
"""
import re
import shlex
import subprocess
import sys

WORKFLOW = ".github/workflows/ci.yml"


def commands(text):
    """Yield (job, command) for the workflow's shell lines that invoke go
    test, continuations joined; a job is a two-space-indented key under
    jobs:."""
    job = None
    for line in re.sub(r"\\\n\s*", " ", text).splitlines():
        m = re.match(r"^  ([A-Za-z0-9_-]+):\s*$", line)
        if m:
            job = m.group(1)
        line = line.strip().removeprefix("run:").strip()
        if line.startswith("go test "):
            yield job, line


def pattern_of(args):
    """Return the -run pattern of a split go test command, or None."""
    pattern = None
    for i, a in enumerate(args):
        if a == "-run":
            pattern = args[i + 1]
        elif a.startswith("-run="):
            pattern = a[len("-run="):]
    return pattern


def alternatives_of(pattern):
    """Split a -run pattern into its alternatives. The workflow's patterns
    are plain alternations; one with groups counts whole."""
    return [pattern] if "(" in pattern else pattern.split("|")


def print_counts(cmds):
    """Print each job's go test commands and -run alternatives."""
    per_job = {}
    for job, cmd in cmds:
        pattern = pattern_of(shlex.split(cmd))
        n, alts = per_job.get(job, (0, 0))
        if pattern is not None and pattern != "^$":
            alts += len(alternatives_of(pattern))
        per_job[job] = (n + 1, alts)
    for job, (n, alts) in per_job.items():
        print(f"{job}: {n} go test commands, {alts} -run alternatives")
    print(f"workflow: {sum(n for n, _ in per_job.values())} go test commands, "
          f"{sum(a for _, a in per_job.values())} -run alternatives")


def main():
    cmds = list(commands(open(WORKFLOW).read()))
    print_counts(cmds)
    failed = False
    checked = 0
    for _, cmd in cmds:
        args = shlex.split(cmd)
        pattern = pattern_of(args)
        pkgs = [a for a in args if a.startswith("./")]
        if pattern is None or pattern == "^$" or not pkgs:
            continue
        for alt in alternatives_of(pattern):
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
