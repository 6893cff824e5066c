"""Time reading scenario files, and check the reader against yaml.load.

    python3 tools/parse_time.py [--repeats 5]

Reads every `configs/*.yaml` and every file input of benchmark seed 7 (the
design_lp design problems and the small_games sweeps, built with the
benchmark's own input generator in a temporary directory, as
`tools/artifact_digests.py` does) with `ScenarioConfig.from_file` and with
`yaml.load` on libyaml's safe loader (the pure-Python one when libyaml is not
built). Prints one JSON object with each file's size, the reader that built
it (`block` for the line reader, `yaml.load` when the line reader hands it
on) and the median milliseconds of each over the repeats. Each repeat reads
every file with both readers in turn, so a slow or fast spell of a shared
machine falls on all files alike rather than on the files timed during it.
Exits 1 when, for any file, the `from_file` document is not repr-equal to
yaml.load's (repr tells 1 from 1.0 and True, and a NaN from anything else,
where == does not), or when a benchmark input is not built by `block`.
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from lotterydesign import harness  # noqa: E402

BENCH_SEED = 7


def reader(text, loader):
    """The reader of `harness._load_yaml` that builds `text`."""
    try:
        harness._read_block(text, loader)
        return "block"
    except harness._Fallback:
        return "yaml.load"


def seconds(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def median_ms(times):
    return round(statistics.median(times) * 1e3, 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    loader = harness._YAML_LOADER
    files, mismatches, unread = {}, [], []
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        workloads.DesignLp(ROOT).generate(BENCH_SEED, work)
        workloads.SmallGames(ROOT).generate(BENCH_SEED, work)
        paths = [(f"configs/{p.name}", p) for p in sorted((ROOT / "configs").glob("*.yaml"))]
        paths += [(f"bench:{BENCH_SEED}/{p.name}", p) for p in sorted(work.glob("*.yaml"))]
        texts = {name: path.read_text() for name, path in paths}
        for name, path in paths:
            text = texts[name]
            if repr(harness.ScenarioConfig.from_file(path).raw) != repr(
                    yaml.load(text, Loader=loader)):
                mismatches.append(name)
            files[name] = {"kb": round(len(text.encode()) / 1024, 1),
                           "reader": reader(text, loader)}
            if name.startswith("bench:") and files[name]["reader"] != "block":
                unread.append(name)
        times = {name: ([], []) for name, _ in paths}
        for _ in range(args.repeats):
            for name, path in paths:
                from_file, yaml_load = times[name]
                from_file.append(seconds(lambda: harness.ScenarioConfig.from_file(path)))
                yaml_load.append(seconds(lambda: yaml.load(texts[name], Loader=loader)))
        for name, (from_file, yaml_load) in times.items():
            files[name].update(from_file_ms=median_ms(from_file), yaml_load_ms=median_ms(yaml_load))
    print(json.dumps({"loader": loader.__name__, "repeats": args.repeats, "files": files,
                      "mismatches": mismatches, "not_read_by_lines": unread}, indent=2))
    return 1 if mismatches or unread else 0


if __name__ == "__main__":
    sys.exit(main())
