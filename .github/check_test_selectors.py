#!/usr/bin/env python3
"""Fail when a `go test` selector in a workflow names no declared test.

`go test -run X` exits 0 with "[no tests to run]" when X matches nothing,
so a renamed or deleted test silently drops out of every CI step that
selects it by name. This script reads each `go test` command in the given
workflow files (default: .github/workflows/*.yml), splits every -run,
-bench and -fuzz pattern into its `|` alternatives, and requires each
alternative to match at least one Test/Fuzz (-run), Benchmark (-bench) or
Fuzz (-fuzz) function declared in a _test.go file of the packages that
command names. `^$`, the explicit "run nothing" pattern, is skipped.

Run from the repository root:  python3 .github/check_test_selectors.py
"""
import glob
import os
import re
import shlex
import sys

KINDS = {"-run": ("Test", "Fuzz"), "-bench": ("Benchmark",), "-fuzz": ("Fuzz",)}
GO_TEST = re.compile(r"(?:^\s*|run:\s*|&&\s*)go test\s(.*)")
SHELL_OPS = {"|", "||", "&&", ";"}


def declared():
    """Map package directory -> names of Test/Benchmark/Fuzz functions."""
    names = {}
    for path in glob.glob("**/*_test.go", recursive=True):
        with open(path) as f:
            found = re.findall(r"^func ((?:Test|Benchmark|Fuzz)\w*)\(", f.read(), re.M)
        names.setdefault(os.path.dirname(path) or ".", set()).update(found)
    return names


def commands(path):
    """Yield (line number, packages, [(flag, pattern)]) per go test command."""
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            m = GO_TEST.search(line)
            if not m:
                continue
            pkgs, selectors = [], []
            words = shlex.split(m.group(1))
            i = 0
            while i < len(words):
                w = words[i]
                if w in SHELL_OPS or w.startswith(">"):
                    break
                flag, eq, value = w.partition("=")
                if flag in KINDS:
                    if not eq:
                        i += 1
                        value = words[i]
                    selectors.append((flag, value))
                elif w.startswith("./"):
                    pkgs.append(w)
                i += 1
            yield lineno, pkgs or ["."], selectors


def package_dirs(pkgs, names):
    dirs = set()
    for p in pkgs:
        if p.endswith("/..."):
            root = os.path.normpath(p[: -len("/...")])
            dirs.update(d for d in names if root == "." or d == root or d.startswith(root + "/"))
        else:
            dirs.add(os.path.normpath(p))
    return dirs


def main(paths):
    names = declared()
    bad = 0
    for path in paths:
        for lineno, pkgs, selectors in commands(path):
            dirs = package_dirs(pkgs, names)
            funcs = set().union(*(names.get(d, set()) for d in dirs))
            for flag, pattern in selectors:
                if flag != "-fuzz":
                    pattern = pattern.split("/")[0]  # subtest levels
                for alt in pattern.split("|"):
                    if alt == "^$":
                        continue
                    if not any(f.startswith(KINDS[flag]) and re.search(alt, f) for f in funcs):
                        print(f"{path}:{lineno}: {flag} alternative {alt!r} matches no "
                              f"{'/'.join(KINDS[flag])} function in {' '.join(sorted(dirs))}")
                        bad += 1
    if bad:
        print(f"{bad} selector alternative(s) match nothing; go test would pass them silently")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(glob.glob(".github/workflows/*.yml"))))
