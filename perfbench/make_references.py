"""Write references.json: the first outputs of every workload for seeds 0..N-1.

Run from the root of a hitkit checkout whose numerics are trusted:

    python3 perfbench/make_references.py [--seeds 32]

The benchmark fails any of its leading units whose output differs from these
(see LOSS_RTOL and EMBED_RTOL in workloads.py); seeds outside the table are
checked only against a replay of the same units.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

import run


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=32)
    args = p.parse_args()
    run.import_hitkit()
    import workloads as W

    table = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, cls in W.WORKLOADS.items():
            table[name] = {}
            for seed in range(args.seeds):
                wl = cls(seed, Path(tmp))
                wl.prepare()
                table[name][str(seed)] = [wl.to_reference(out) for out in wl.warmup()]
                print(name, seed, flush=True)
    (run.HERE / "references.json").write_text(to_text(table))


def to_text(table: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for name, seeds in table.items():
        rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(outs)}" for seed, outs in seeds.items())
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    main()
