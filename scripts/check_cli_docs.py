#!/usr/bin/env python3
"""Check that the jscale help and the documented command lines agree.

usage: scripts/check_cli_docs.py <jscale-binary> [file ...]

Files default to README.md, EXPERIMENTS.md, docs/*.md and the CI
workflow. The check fails when

* a command that `jscale --help` lists does not answer
  `jscale <cmd> --help` with exit 0 and some output;
* a --flag used in a documented `jscale` command is missing from
  `jscale --help`;
* a complete documented command line (a code block line, or a CI line)
  does not parse. It is re-run with --help after its command words,
  which checks every flag and value without simulating anything.
"""

import glob
import re
import shlex
import subprocess
import sys

FLAG = re.compile(r"--[a-z][a-z0-9-]*")
INLINE = re.compile(r"`(jscale [^`]*)`")


def logical_lines(text):
    """Lines with backslash continuations joined."""
    return re.sub(r"\\\n\s*", " ", text).splitlines()


def command_lines(path):
    """(jscale command text, complete?) pairs found in one file."""
    text = open(path, encoding="utf-8").read()
    if not path.endswith(".md"):
        return [(line, True) for line in logical_lines(text)
                if "tools/jscale " in line]
    found = []
    in_code = False
    for line in logical_lines(text):
        if line.lstrip().startswith("```"):
            in_code = not in_code
        elif in_code and re.match(r"\s*(\./)?(build/tools/)?jscale ", line):
            found.append((line, True))
        elif not in_code:
            found.extend((m, False) for m in INLINE.findall(line))
    return found


def argv_of(line):
    """The jscale arguments of a shell line, with --help inserted."""
    line = re.sub(r"\s\d+>", " >", line)  # 2> is a redirection
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    lexer.commenters = "#"
    tokens = list(lexer)
    start = next(i for i, t in enumerate(tokens)
                 if t == "jscale" or t.endswith("/jscale"))
    args = []
    for tok in tokens[start + 1:]:
        if set(tok) <= set("|&;<>()"):
            break
        args.append(tok)
    words = next((i for i, t in enumerate(args) if t.startswith("-")),
                 len(args))
    return args[:words] + ["--help"] + args[words:]


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    jscale = sys.argv[1]
    files = sys.argv[2:] or (["README.md", "EXPERIMENTS.md"] +
                             sorted(glob.glob("docs/*.md")) +
                             [".github/workflows/ci.yml"])
    failures = []

    top = subprocess.run([jscale, "--help"], capture_output=True,
                         text=True)
    if top.returncode != 0:
        sys.exit(f"jscale --help exited {top.returncode}")
    section = top.stdout.split("\ncommands:\n")[1].split("\n\n")[0]
    commands = re.findall(r"^  (\S+)", section, re.M)
    for cmd in commands:
        r = subprocess.run([jscale, cmd, "--help"], capture_output=True,
                           text=True)
        if r.returncode != 0 or not r.stdout.strip():
            failures.append(f"jscale {cmd} --help: exit {r.returncode}")
    known = set(FLAG.findall(top.stdout))

    checked = 0
    for path in files:
        for line, complete in command_lines(path):
            for flag in sorted(set(FLAG.findall(line)) - known):
                failures.append(f"{path}: {flag} is not in jscale --help")
            if not complete or "$" in line:
                continue
            argv = argv_of(line)
            r = subprocess.run([jscale] + argv, capture_output=True,
                               text=True)
            checked += 1
            if r.returncode != 0:
                failures.append(f"{path}: jscale {' '.join(argv)}: "
                                f"{r.stderr.strip()}")

    for f in failures:
        print(f"FAIL {f}")
    print(f"{len(commands)} command helps, {checked} documented command "
          f"lines parsed, {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
