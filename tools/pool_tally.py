"""Tally the exit codes of CLI ``resolve`` on every surface of the pool.

Runs ``surfres.cli.main(["resolve", "-"])`` in this process on each of the
surfaces of ``perfbench/pool.json`` (excluded ones too), and prints how many
exit with each code and, for the scope errors (exit 3), how many fall in
each family: the error message with its polynomials, chart ids and
coordinate subspaces masked.

    python3 tools/pool_tally.py

The script reads ``perfbench/`` and writes nothing there.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or tools/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

import corpus  # noqa: E402  (perfbench/corpus.py)
from cli_bytes import run_cli  # noqa: E402
from surfres.cli import EXIT_SCOPE  # noqa: E402


def family(message: str) -> str:
    """The scope error's message up to its first ';', with the parts that
    name one job masked."""
    head = message.split(";")[0].strip()
    head = re.sub(r"^chart \S+: ", "", head)
    head = re.sub(r"\([^)]*\)", "(…)", head)
    return re.sub(r"condition .*", "condition …", head)


def main() -> int:
    start = time.perf_counter()
    codes: Counter[int] = Counter()
    families: Counter[str] = Counter()
    for s in corpus.load_pool():
        code, out, _ = run_cli(("resolve",),
                               corpus.surface_job(s["field"], s["text"]))
        codes[code] += 1
        if code == EXIT_SCOPE:
            families[family(json.loads(out)["trace"]["error"])] += 1
    elapsed = time.perf_counter() - start
    print(f"{sum(codes.values())} surfaces in {elapsed:.0f} s")
    for code in sorted(codes):
        print(f"  exit {code}: {codes[code]}")
    for name, count in families.most_common():
        print(f"  {count:4d}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
