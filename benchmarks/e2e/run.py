"""Parent process: child processes under a watchdog, results, ``--check``.

Driver mode (``--workload W --seed S --seconds T --trace 0|1``) runs one
workload and prints one JSON result object as the last line of standard
output.  Suite mode (no ``--workload``) runs every workload, prints each
metric by name with its unit and writes the result JSON under ``out/``.

This module imports neither numpy nor the program: each workload runs in
a fresh child (``child.py``) so that set-up time includes the imports
and the BLAS thread pinning is in the environment before numpy loads.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import subprocess
import sys
import time

from . import metrics as M
from .reference import INTERP_STEPS, KERNEL_SHAPE, MIN_SAMPLES, NOMINAL_S, PERIOD_S
from .workloads import (
    CHILD_ENV,
    EXACT_COUNTS,
    LATE_SHARE_LIMIT,
    RECORDED_ENV,
    ROOT,
    SETUP_REPEATS,
    WORKLOADS,
    contract,
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: One driver run must end well inside the driver's 180 s limit.
RUN_DEADLINE_S = 165.0
SETUP_CHILD_LIMIT_S = 60.0
SAMPLER_START_LIMIT_S = 30.0


class WorkloadFailed(RuntimeError):
    """A child crashed, hung past its watchdog or left residue behind."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _cpus(name: str, phase: str) -> "set":
    """The CPUs a child, its workers and the sampler may run on.  The
    vCPUs of a microVM are slowed one by one, so single-threaded work —
    the virtual workload, and every set-up (imports, model, plan) — is
    pinned to one CPU together with the sampler: a sampler on the other
    vCPU would measure the wrong one.  A multi-process measurement and
    its sampler move over all CPUs alike."""
    allowed = os.sched_getaffinity(0)
    if phase == "setup" or WORKLOADS[name]["kind"] == "virtual":
        return {min(allowed)}
    return allowed


def _kernel(name: str) -> str:
    """The reference kernel a workload is set beside: the interpreter
    loop for the virtual workload, which is all interpreter, the sgemm
    for the ones that compute in worker processes."""
    return "interp" if WORKLOADS[name]["kind"] == "virtual" else "sgemm"


class Sampler:
    """The host-speed sampler of one run (``reference.py``): a process
    that appends a timed fixed kernel to ``self.path`` every 50 ms, from
    before the first set-up child to after the last measurement."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel

    def __enter__(self) -> "Sampler":
        os.makedirs(OUT_DIR, exist_ok=True)
        self.path = os.path.join(OUT_DIR, f"reference-{os.getpid()}.txt")
        open(self.path, "w").close()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.reference", self.path, self.kernel],
            cwd=ROOT, env=_child_env(),
        )
        try:
            self._wait_for_samples()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _wait_for_samples(self) -> None:
        give_up = time.perf_counter() + SAMPLER_START_LIMIT_S
        while True:
            with open(self.path) as handle:
                if len(handle.readlines()) > MIN_SAMPLES:
                    return
            if self.process.poll() is not None or time.perf_counter() > give_up:
                raise WorkloadFailed("the host-speed sampler did not start")
            time.sleep(0.05)

    def pin(self, cpus: "set") -> None:
        os.sched_setaffinity(self.process.pid, cpus)

    def __exit__(self, *exc_info) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        os.unlink(self.path)


def _reap(pgid: int) -> None:
    """Kill whatever is left of a child's process group (stray workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _shm_residue(pid: int) -> "list":
    return glob.glob(f"/dev/shm/repro_shm_{pid}_*")


def run_child(name: str, seed: int, seconds: float, trace: int, phase: str,
              limit_s: float, sampler: Sampler) -> dict:
    """One fresh child under a hard watchdog; returns its JSON object."""
    cpus = _cpus(name, phase)
    sampler.pin(cpus)
    spawned_at = time.perf_counter()
    child = subprocess.Popen(
        [
            sys.executable, "-m", "benchmarks.e2e.child",
            "--workload", name, "--seed", str(seed),
            "--seconds", repr(float(seconds)), "--trace", str(trace),
            "--phase", phase, "--spawned-at", repr(spawned_at),
            "--reference", sampler.path,
        ],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,  # own process group: workers die with it
    )
    os.sched_setaffinity(child.pid, cpus)
    try:
        stdout, _ = child.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        _reap(child.pid)
        child.communicate()
        raise WorkloadFailed(
            f"{name}: {phase} child exceeded its {limit_s:.0f} s watchdog"
        ) from None
    finally:
        _reap(child.pid)
        residue = _shm_residue(child.pid)
        for path in residue:
            os.unlink(path)
    if residue:
        raise WorkloadFailed(f"{name}: /dev/shm residue {residue}")
    if child.returncode != 0:
        raise WorkloadFailed(f"{name}: {phase} child exited {child.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise WorkloadFailed(f"{name}: {phase} child printed no result")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """All children of one run, with the host-speed sampler beside them.
    Untraced: ``SETUP_REPEATS`` fresh set-ups on one CPU, the quickest
    of which is ``setup_s`` (``workloads.SETUP_REPEATS`` says why), then
    the measurement child and the end-to-end metrics; traced: one child
    and the per-layer metrics."""
    deadline = time.perf_counter() + RUN_DEADLINE_S

    def remaining() -> float:
        return max(1.0, deadline - time.perf_counter())

    setups = []
    with Sampler(_kernel(name)) as sampler:
        if not trace:
            for _ in range(SETUP_REPEATS):
                limit = min(SETUP_CHILD_LIMIT_S, remaining())
                setups.append(run_child(name, seed, seconds, 0, "setup", limit, sampler))
        out = run_child(name, seed, seconds, trace, "measure", remaining(), sampler)
    setups = setups or [out]
    quickest = min(setups, key=lambda s: s["setup_s"])
    tally = out["tally"]
    if tally["submitted"] < 1:
        raise WorkloadFailed(f"{name}: nothing was submitted in {seconds:g} s")
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": tally["wrong"] == 0 and tally["unaccounted"] == 0,
        "attempted": tally["submitted"],
        "failed": tally["missed"],
        "failed_share": tally["missed"] / tally["submitted"],
        "tally": tally,
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_wall_s": quickest["setup_wall_s"],
        "host_speed": out.get("host_speed"),
        "plan": out["plan"],
        "counts": out.get("counts", {}),
        "samples": out["samples"],
        "windows": out["windows"],
        "latency_tail_ms": out["latency_tail_ms"],
        "latency_tail_pct": out["latency_tail_pct"],
        # In reference ms, like the latency limit they are judged against.
        "late_p99_ms": out["late_p99_ms"] * out.get("host_speed", 1.0),
        "late_segment_p99_ms": out["late_segment_p99_ms"] * out.get("host_speed", 1.0),
    }
    if trace:
        values, listed = out["layers"], contract()["per_layer"]
        result["counts"] = {c: values[c] for c in EXACT_COUNTS}
    else:
        values = dict(out, setup_s=quickest["setup_s"])
        listed = contract()["end_to_end"]
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
    }
    return result


def late_limit_ms(name: str) -> "float | None":
    limit = WORKLOADS[name].get("latency_limit_ms")
    return None if limit is None else LATE_SHARE_LIMIT * limit


def print_result(result: dict) -> None:
    tally = result["tally"]
    print(
        f"== {result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']:g} trace={result['trace']}: "
        f"submitted={tally['submitted']} ok={tally['ok']} wrong={tally['wrong']} "
        f"shed={tally['shed']} failed={tally['failed']} "
        f"unaccounted={tally['unaccounted']} failed_share={result['failed_share']:.4f} "
        f"(n={result['samples']} timings in {result['windows']} windows)"
    )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
    if result["host_speed"] is not None:
        print(
            f"  host speed over the run          {result['host_speed']:14.6g} x nominal"
            f" (reference seconds = wall seconds x this; set-up took"
            f" {result['setup_wall_s']:.3f} wall s)"
        )
    if result["latency_tail_ms"] is not None:
        print(
            f"  latency_p{result['latency_tail_pct']:g}_ref_ms (not gated)"
            f"   {result['latency_tail_ms']:14.6g} ms"
        )
    limit = late_limit_ms(result["workload"])
    if limit is not None:
        print(
            f"  generator lateness p99           {result['late_p99_ms']:14.6g} ms"
            f" (reference ms; median over segments"
            f" {result['late_segment_p99_ms']:.6g}, limit {limit:g})"
        )


def driver_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


# ---------------------------------------------------------------------------
# Suite mode
# ---------------------------------------------------------------------------
def host_metadata(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    versions = subprocess.run(
        [
            sys.executable, "-c",
            "import json, numpy as np\n"
            "blas = np.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "print(json.dumps({'numpy': np.__version__, "
            "'blas': blas.get('name'), 'blas_version': blas.get('version')}))",
        ],
        capture_output=True, text=True, env=_child_env(),
    )
    try:
        libs = json.loads(versions.stdout)
    except ValueError:
        libs = {"numpy": "unknown"}
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **libs,
        "child_env": CHILD_ENV,
        "reference": {
            "kernel_shape": KERNEL_SHAPE, "interp_steps": INTERP_STEPS,
            "nominal_s": NOMINAL_S, "period_s": PERIOD_S,
        },
        "program_env": {name: os.environ.get(name) for name in RECORDED_ENV},
        "seed": seed,
    }


def run_suite(seed: int, seconds: float, trace: int) -> dict:
    results = {}
    for name in WORKLOADS:
        result = run_workload(name, seed, seconds, trace)
        print_result(result)
        limit = late_limit_ms(name)
        if limit is not None and result["late_segment_p99_ms"] > limit:
            raise WorkloadFailed(
                f"{name}: generator lateness p99 {result['late_segment_p99_ms']:.2f} ms "
                f"exceeds {limit:g} ms; the load was not the frozen schedule"
            )
        results[name] = result
    return results


def check_sets(first: dict, second: dict) -> "list":
    """Disagreements between two suite runs of one seed: every count
    must repeat exactly and, on untraced runs, every end-to-end metric
    must agree within its bound."""
    bounds = {m["name"]: m["bound"] for m in contract()["end_to_end"]}
    problems = []
    for name in first:
        if not first[name]["trace"]:
            a = {k: v["value"] for k, v in first[name]["metrics"].items()}
            b = {k: v["value"] for k, v in second[name]["metrics"].items()}
            for metric in M.compare_sets(a, b, bounds):
                problems.append(
                    f"{name}.{metric}: {a[metric]:.6g} vs {b[metric]:.6g} "
                    f"(bound {bounds[metric]:g})"
                )
        if first[name]["counts"] != second[name]["counts"]:
            problems.append(
                f"{name}: counts {first[name]['counts']} vs {second[name]['counts']}"
            )
    return problems


def main(argv=None) -> int:
    spec = contract()
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: add a traced run of every workload")
    parser.add_argument("--check", action="store_true",
                        help="suite mode: run the untraced and the traced suite twice "
                             "each and compare")
    parser.add_argument("--out", default=None, help="suite mode: result JSON path")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload:
        try:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        except WorkloadFailed as exc:
            print(f"FAILED: {exc}", file=sys.stderr)
            return 1
        print_result(result)
        print(driver_line(result))
        return 0

    report = {"host": host_metadata(args.seed), "seconds": args.seconds, "sets": []}
    problems = []
    try:
        report["sets"].append(run_suite(args.seed, args.seconds, 0))
        if args.check:
            report["sets"].append(run_suite(args.seed, args.seconds, 0))
            problems = check_sets(*report["sets"])
        if args.traced or args.check:
            report["traced"] = [run_suite(args.seed, args.seconds, 1)]
        if args.check:
            report["traced"].append(run_suite(args.seed, args.seconds, 1))
            problems += check_sets(*report["traced"])
    except WorkloadFailed as exc:
        problems.append(str(exc))
    report["problems"] = problems
    os.makedirs(OUT_DIR, exist_ok=True)
    path = args.out or os.path.join(OUT_DIR, f"result-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"results written to {os.path.relpath(path)}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
