#!/usr/bin/env python3
"""Pins the environment-variable inventory of the program.

Every "GLIMPSE_*" string literal under src/, bench/, tools/ and examples/
must be one of ALLOWED, and every name in ALLOWED must still be read
somewhere. An environment variable is an option that no flag, config or
test shows, so adding one is a decision made here, on purpose.

  python3 tests/env_knobs_test.py [REPO_ROOT]
"""
import pathlib
import re
import sys

ALLOWED = {
    "GLIMPSE_AUTH",
    "GLIMPSE_LOG_LEVEL",
    "GLIMPSE_METRICS",
    "GLIMPSE_NUM_THREADS",
    "GLIMPSE_TRACE",
}
DIRS = ("src", "bench", "tools", "examples")
LITERAL = re.compile(r'"(GLIMPSE_[A-Z_]*)"')


def inventory(root):
    """Maps each name to the file:line places that spell it as a literal."""
    found = {}
    for d in DIRS:
        for path in sorted((root / d).rglob("*")):
            if not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for n, line in enumerate(text.splitlines(), 1):
                for name in LITERAL.findall(line):
                    found.setdefault(name, []).append(f"{path.relative_to(root)}:{n}")
    return found


def main():
    here = pathlib.Path(__file__).resolve().parent.parent
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else here
    found = inventory(root)
    ok = True
    for name in sorted(set(found) - ALLOWED):
        ok = False
        print(f"FAIL unlisted environment variable {name}: {', '.join(found[name])}")
    for name in sorted(ALLOWED - set(found)):
        ok = False
        print(f"FAIL {name} is listed but no longer read; drop it from ALLOWED")
    print(f"{len(found)} environment variable(s): {' '.join(sorted(found))}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
