#!/usr/bin/env python3
"""Print where the dispatch loops sit in a binary, modulo 64 bytes.

The `batch` steps/s of e2ebench moves by about 10% with the code placement
of the fast engine's dispatch loop alone, so a performance comparison must
report that placement for both binaries it compares. This reads the symbol
table with `nm -C` and prints, for each dispatch loop, its address and the
address mod 64 (the offset inside a 64-byte cache line / fetch block):

    python3 tools/placement.py build/bench/interp_dispatch

Symbols missing from the binary are reported as absent, and the exit
status is then 1.
"""

import subprocess
import sys

# Display name -> the demangled symbol prefix `nm -C` prints for it.
SYMBOLS = [
    ("FastInterp::stepImpl<false>",
     "satb::RunStatus satb::FastInterp::stepImpl<false>("),
    ("FastInterp::stepImpl<true>",
     "satb::RunStatus satb::FastInterp::stepImpl<true>("),
    ("Interpreter::stepOne", "satb::Interpreter::stepOne("),
]


def code_symbols(binary):
    """Maps each demangled text symbol of `binary` to its address."""
    out = subprocess.run(["nm", "-C", binary], check=True,
                         capture_output=True, text=True).stdout
    addrs = {}
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in ("T", "t", "W", "w"):
            continue
        addrs.setdefault(parts[2], int(parts[0], 16))
    return addrs


def placement(binary):
    """[(name, address or None)] for every dispatch loop in SYMBOLS."""
    addrs = code_symbols(binary)
    rows = []
    for name, prefix in SYMBOLS:
        hit = [a for sym, a in addrs.items() if sym.startswith(prefix)]
        rows.append((name, hit[0] if hit else None))
    return rows


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} <binary>")
    binary = sys.argv[1]
    rows = placement(binary)
    print(f"# {binary}")
    for name, a in rows:
        where = "absent" if a is None else f"{a:#x}  mod 64 = {a % 64}"
        print(f"{name:30} {where}")
    return 1 if any(a is None for _, a in rows) else 0

if __name__ == "__main__":
    sys.exit(main())
