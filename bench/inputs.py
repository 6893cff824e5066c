"""Write every workload's inputs for one seed, for inspection or reuse.

    python3 bench/inputs.py --seed 0 --out .bench_work/inputs

Writes the same inputs a run with that seed generates: `design_lp/` (the
eight 60-player design scenarios; the case study reads `configs/case30.yaml`) and
`small_games/` (the two analyze scenarios and the 2000-point equilibrium
corpus, one scenario file per point; a run keeps the corpus in memory).
"""

from __future__ import annotations

import argparse
from pathlib import Path

import workloads
from run import ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(ROOT)
        workload.generate(args.seed, args.out / name)
        if name == "small_games":
            for k, (config, *_) in enumerate(workload.corpus):
                workloads.write_yaml(args.out / name / "corpus" / f"point{k:04d}.yaml",
                                     config)
    print(f"inputs for seed {args.seed} written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
