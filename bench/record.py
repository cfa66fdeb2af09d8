"""Record the reference outputs the benchmark checks against.

    python3 bench/record.py

Run from the repository root, on a commit whose outputs are trusted.  It
writes ``reference/verify-<group>-b<bound>.txt`` (the stdout of each
``satake verify`` cell), ``reference/dual-table.json`` (one digest per dual
product) and ``reference/iwahori-words.json`` (one digest per group for
each seed in ``child.RECORDED_SEEDS``).  Each sample runs in a fresh
interpreter, as in the benchmark.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import child
from run import child_env, run_child


def write_json(name: str, data: dict) -> None:
    with open(os.path.join(child.REFERENCE, name), "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main() -> int:
    root = os.getcwd()
    os.makedirs(child.REFERENCE, exist_ok=True)
    for group, bound in child.VERIFY_CELLS:
        text = subprocess.run(
            [sys.executable, "-s", "-m", "satake.cli", "verify", "--group", group,
             "--bound", str(bound)], cwd=root, env=child_env(root), capture_output=True,
            text=True, check=True).stdout
        with open(os.path.join(child.REFERENCE, f"verify-{child.slug(group)}-b{bound}.txt"), "w") as fh:
            fh.write(text)
    # the children read these files, so start from empty references
    write_json("dual-table.json", {})
    write_json("iwahori-words.json", {})
    write_json("dual-table.json", run_child(root, "dual-table", 0)["digests"])
    words = {str(seed): run_child(root, "iwahori-words", seed)["digests"]
             for seed in child.RECORDED_SEEDS}
    write_json("iwahori-words.json", words)
    return 0


if __name__ == "__main__":
    sys.exit(main())
