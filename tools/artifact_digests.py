"""Print the sha256 of every artifact the program writes on a fixed set of inputs.

    python3 tools/artifact_digests.py

Runs every verb that each `configs/*.yaml` configures (a verb whose run
raises ConfigError is not configured and is left out), `run_selftest` at
seeds 0 and 13 (whose corpus skips points that are not equilibria), and
every input of benchmark seed 7: the design_lp design problems, the
small_games sweeps and its equilibrium corpus, built with the benchmark's
own input generator in a temporary directory, as `tools/layer_time.py`
does. Prints one line `<sha256>  <run>/<artifact>` per
artifact, in a fixed order, `raised  <run>: <type>: <message>` for a run that
raises any exception (reading its config included), with its traceback on
standard error, and `no verb  configs/<file>: <errors>` for a config file that
configures no verb. Two trees that print the same lines wrote the same bytes.
The output is committed as `tools/artifact_digests.txt`, which CI compares it
with; a change that moves a digest on purpose rewrites that file:

    python3 tools/artifact_digests.py > tools/artifact_digests.txt

Takes no options. Exits 1 if a run raised or a config file configures no
verb, else 0.
"""

import hashlib
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from lotterydesign import ScenarioConfig, run_scenario, run_selftest  # noqa: E402
from lotterydesign.errors import ConfigError  # noqa: E402
from lotterydesign.harness import _PIPELINES  # noqa: E402

BENCH_SEED = 7


def digest(out: Path, run: str, names) -> None:
    for name in names:
        print(f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {run}/{name}")


def raised(run: str, exc: Exception) -> Exception:
    """Print the line of a run that raised `exc`, its traceback to stderr, and return it."""
    print(f"raised  {run}: {type(exc).__name__}: {exc}")
    traceback.print_exception(exc, file=sys.stderr)
    return exc


def scenario(run: str, verb: str, load, out: Path, optional=False):
    """Run one verb on the config `load()` and print its digests, or the error
    it raised; return that error.

    An optional verb that raises ConfigError is one the config does not
    configure, and prints nothing.
    """
    try:
        result = run_scenario(verb, load(), out_dir=out)
    except Exception as exc:  # the run is named whatever it raised
        return exc if optional and isinstance(exc, ConfigError) else raised(run, exc)
    digest(out, run, result.artifacts)
    return None


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for path in sorted((ROOT / "configs").glob("*.yaml")):
            errors = [scenario(f"configs/{path.name}:{verb}", verb,
                               lambda: ScenarioConfig.from_file(path),
                               work / "configs" / path.stem / verb, optional=True)
                      for verb in _PIPELINES]
            failed |= any(exc is not None and not isinstance(exc, ConfigError) for exc in errors)
            if all(errors):
                failed = True
                print(f"no verb  configs/{path.name}: "
                      + "; ".join(f"{verb}: {exc}" for verb, exc in zip(_PIPELINES, errors)))
        for seed in (0, 13):
            out = work / "selftest" / str(seed)
            try:
                run_selftest(seed=seed, out_dir=out)
            except Exception as exc:  # the run is named whatever it raised
                raised(f"selftest:{seed}", exc)
                failed = True
                continue
            digest(out, f"selftest:{seed}", ["report.json"])

        inputs = work / "inputs"
        design_lp = workloads.DesignLp(ROOT)
        design_lp.generate(BENCH_SEED, inputs)
        for k, problem in enumerate(design_lp.problems):
            failed |= scenario(f"design_lp:{k}", "design",
                               lambda: ScenarioConfig.from_file(problem.config),
                               work / "design_lp" / str(k)) is not None
        small_games = workloads.SmallGames(ROOT)
        small_games.generate(BENCH_SEED, inputs)
        for regime, path, *_ in small_games.sweeps:
            failed |= scenario(f"small_games:{regime}", "analyze",
                               lambda: ScenarioConfig.from_file(path),
                               work / "small_games" / regime) is not None
        out = work / "small_games" / "equilibrium"
        for k, (config, *_) in enumerate(small_games.corpus):
            failed |= scenario(f"small_games:corpus:{k}", "equilibrium",
                               lambda: ScenarioConfig(config, inputs), out) is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
