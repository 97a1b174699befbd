"""orelco benchmark: three seeded workloads, verdict-checked timings, and a
traced run that attributes time and work to each library module.

One workload per run:

    python3 perfbench/run.py --workload present --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, with a table of metrics by name:

    python3 perfbench/run.py --all [--seed 1] [--seconds 30] [--out FILE]

Workloads (see ``workloads.py``):

* ``present``  -- ``present_subgroup`` on three fixed instances; the only slow
  user path, dominated by candidate enumeration and short Dehn calls.
* ``diagrams`` -- products of 10-35 conjugates of ``w^(+-n)`` (150-900
  letters) through ``dehn_solve``, ``build_reduced_diagram``, ``fold`` into
  the presentation complex and ``collapse``, plus long nontrivial words
  through ``dehn_solve``.
* ``campaign`` -- one-trial ``run_property_campaign`` calls with all three
  suites: thousands of small folds, collapses, covers and audits.

A run sets up several times, before and after its timed rounds (import of
``orelco`` from ``src/`` plus input generation), and reports the median as
``setup_s``.  A round runs every distinct operation of the workload once,
one after another in one process; a run makes ``seconds // nominal round
time`` rounds, so each operation is repeated with the other operations in
between, and an operation's time is the median of its repetitions.  The
run reports the sum of the operation times (``wall_s``, the time to the
verdicts of every distinct operation), their median (``op_p50_ms``), the
highest percentile of them with at least ten beyond it, or their maximum
when there are fewer than 20 (``op_tail_ms``), and the peak resident set
size.  The amount of work depends only on the arguments, never on the
clock.

Times of the untraced run are in reference seconds (see ``speed.py``): the
measured time of each set-up and each repetition, converted by a speed
probe that runs throughout, so that the host's changes of speed do not
decide them.  The measured times are printed and stored beside them.  The
benchmark re-executes itself under a fixed ``PYTHONHASHSEED`` (``HASH_SEED``).

With ``--trace 1`` half as many rounds run without the probe, and each
repetition runs twice in a row, untraced and then traced.  The run reports
the per-layer metrics of ``tracer.py`` in measured seconds together with
the tracing overhead.  Spans are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation that
raises or returns a wrong verdict counts as failed and the run goes on.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("present", "diagrams", "campaign")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919     # for re-checking a claim on a seed its author did not use
# String hashes decide the layout and order of the sets and dicts the
# library builds, and with a random hash seed the same run took up to 10%
# longer in one process than in another.  The benchmark runs under this
# fixed seed, so that only its inputs and the host vary between runs.
HASH_SEED = "0"
# Set-ups before and after the timed rounds; set-up time is their median,
# so that one slow spell of the machine does not decide it.
SETUPS_BEFORE, SETUPS_AFTER = 3, 4
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


def import_orelco():
    """Import ``orelco`` afresh from this checkout's ``src/``, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "orelco" / "__init__.py").is_file():
        raise BenchError(f"no orelco package under {src}")
    for key in [k for k in sys.modules if k == "orelco" or k.startswith("orelco.")]:
        del sys.modules[key]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    api = importlib.import_module("orelco")
    if Path(api.__file__).resolve().parent != (src / "orelco").resolve():
        raise BenchError(f"imported orelco from {api.__file__}, not {src}")
    return api


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(),
            "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
            "cpu_count": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0],
            "commit": git_commit()}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, beyond): the highest percentile with at least ten
    samples beyond it, or the maximum when that percentile would lie below
    the median (fewer than 20 samples)."""
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def e2e_values(times: list[float], setup_times: list[float],
               peak_rss_mb: float) -> dict:
    """The end-to-end metrics from operation and set-up times."""
    return {"setup_s": statistics.median(setup_times),
            "wall_s": sum(times),
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_tail_ms": 1e3 * tail(times)[0],
            "peak_rss_mb": peak_rss_mb}


def run_once(op, tracer):
    """Time one repetition's work, then check its result untimed; returns
    ((start, end), failure reason or None)."""
    reason = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.work()
        else:
            with tracer.span(tracing.OP_SPAN):
                result = op.work()
    except Exception as exc:  # any raise is a failed operation; go on
        reason = f"{type(exc).__name__}: {exc}"
    interval = (t0, time.perf_counter())
    if reason is None:
        if tracer is not None:
            tracer.enabled = False
        try:
            reason = op.check(result)
        except Exception as exc:  # a check that raises is a failure
            reason = f"check raised {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.enabled = True
    return interval, reason


def run_rounds(ops, rounds: int, tracer=None):
    """Run every operation once per round.  With a tracer, each repetition
    runs twice in a row, untraced and then traced, so that the host's
    changes of speed fall on both alike.  Returns ((start, end) of each
    operation's untraced repetitions, the same of its traced ones,
    failures)."""
    plain, traced, failures = [[] for _ in ops], [[] for _ in ops], []
    modes = [(None, plain)]
    if tracer is not None:
        modes.append((tracer, traced))
    for r in range(rounds):
        for i, op in enumerate(ops):
            for tr, out in modes:
                if tr is not None:
                    tr.op = r * len(ops) + i
                    tr.install()
                    tr.enabled = True
                try:
                    interval, reason = run_once(op, tr)
                finally:
                    if tr is not None:
                        tr.enabled = False
                        tr.uninstall()
                out[i].append(interval)
                if reason is not None:
                    failures.append(
                        f"round {r} op {i} ({op.kind} {op.tag} len "
                        f"{op.length}{', traced' if tr else ''}): {reason}")
    return plain, traced, failures


def op_times(intervals, clock) -> list[float]:
    """Each operation's median repetition time, as ``clock(start, end)``
    reads it."""
    return [statistics.median(clock(a, b) for a, b in reps)
            for reps in intervals]


def elapsed(start: float, end: float) -> float:
    return end - start


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = environment()
    rounds = max(1, int(seconds // workloads.NOMINAL_ROUND_S[workload]))
    if trace:
        rounds = max(1, rounds // 2)

    def set_up():
        t0 = time.perf_counter()
        api = import_orelco()
        made = workloads.SETUP[workload](api, seed)
        setups.append((t0, time.perf_counter()))
        return made

    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "rounds": rounds, "env": env}
    setups: list[tuple[float, float]] = []
    if trace:
        ops = set_up()
        gc.collect()
        tr = tracing.Tracer()
        plain, traced, failures = run_rounds(ops, rounds, tr)
        attempted = 2 * rounds * len(ops)
        untraced_times = op_times(plain, elapsed)
        traced_times = op_times(traced, elapsed)
        result.update(op_times=untraced_times, traced_op_times=traced_times)
        values = tracing.layer_metrics(tr, sum(traced_times),
                                       sum(untraced_times))
        metrics = {name: {"value": values[name],
                          "unit": tracing.METRICS[name][0]}
                   for name in tracing.METRICS}
        OUT_DIR.mkdir(exist_ok=True)
        tr.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz")
        result["missing"] = tr.missing
    else:
        with speed.SpeedProbe() as probe:
            for _ in range(SETUPS_BEFORE):
                ops = set_up()
            gc.collect()
            intervals, _, failures = run_rounds(ops, rounds)
            attempted = rounds * len(ops)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            del ops
            for _ in range(SETUPS_AFTER):
                set_up()
        times = op_times(intervals, probe.reference)
        values = e2e_values(times, [probe.reference(a, b) for a, b in setups],
                            peak_rss_mb)
        measured = e2e_values(op_times(intervals, probe.measured),
                              [probe.measured(a, b) for a, b in setups],
                              peak_rss_mb)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        _, pct, beyond = tail(times)
        result.update(op_times=times, measured=measured,
                      probe=probe.summary(),
                      op_tail={"percentile": pct, "samples": len(times),
                               "beyond": beyond, "rounds": rounds})
    result["failed_ratio"] = len(failures) / attempted
    result["failures"] = failures[:20]
    result["line"] = {"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}
    return result


def print_result(result: dict) -> None:
    w = result["workload"]
    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    print(f"workload {w} seed {result['seed']} rounds {result['rounds']} "
          f"trace {result['trace']}")
    measured = result.get("measured", {})
    for name, m in result["line"]["metrics"].items():
        extra = ""
        if name in measured and name != "peak_rss_mb":
            extra = f"  (measured {measured[name]:.6g})"
        if name == "op_tail_ms":
            t = result["op_tail"]
            extra += (f"  (p{t['percentile']:.2f} of {t['samples']} "
                      f"operations, {t['beyond']} beyond, each the median "
                      f"of {t['rounds']} rounds)")
        print(f"{w}.{name} {m['value']:.6g} {m['unit']}{extra}")
    if "probe" in result:
        print(f"probe: {json.dumps(result['probe'], sort_keys=True)}")
    print(f"{w}.failed_ratio {result['failed_ratio']:.6g} 1")
    for what in result.get("missing", []):
        print(f"missing: {what}")
    for failure in result["failures"]:
        print(f"failed: {failure}")


def run_all(seed: int, seconds: int, out: Path) -> int:
    """Each workload in its own process, untraced then traced."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
               "seed": seed, "seconds": seconds, "env": environment(),
               "why": {w["name"]: w["why"] for w in declared["workloads"]},
               "workloads": {}}
    for w in WORKLOADS:
        entry = summary["workloads"][w] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            entry["per_layer" if trace else "end_to_end"] = json.loads(lines[-1])
            detail = json.loads((OUT_DIR / f"{w}-seed{seed}-trace{trace}.json")
                                .read_text())
            if trace:
                entry["missing"] = detail["missing"]
            else:
                entry["op_tail"] = detail["op_tail"]
                entry["failed_ratio"] = detail["failed_ratio"]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"summary written to {out}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=OUT_DIR / "all.json")
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.out)
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print_result(result)
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replace this process by the same command under the fixed seed.
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
