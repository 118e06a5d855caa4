"""transducersim benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload link_cli --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --record        # rewrite reference.json from this tree

Runs from the root of a checkout against its ``src/`` (the package need
not be installed). Load is a closed loop with one client: one request at
a time, each starting when the previous one returns. Child processes get
BLAS/OpenMP threads pinned to 1. CLI requests are whole
``python3 -m transducersim.cli ...`` processes, whose CPU time comes from
``os.wait4``; library_compute runs in one warm worker process. The CPU
times are normalised by a host probe (probe.py) run between requests.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` a separate in-process run with spans around every
layer reports the per-layer metrics. Either way every output is checked
(see check.py), human-readable lines come first, and the last line of
stdout is one JSON object. The run's record, with the host's noise
figures, is written to bench/.work/.

This file imports no numpy, so the parent's memory does not leak into
the children's ru_maxrss.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads as wl  # noqa: E402

PY = sys.executable
SETUP_RUNS = 11
SETUP_CODE = "import transducersim; transducersim.load_device('table1_measured')"
PROBE = [PY, str(BENCH / "probe.py")]
PROBE_EVERY_S = 1.5     # seconds between probe processes in a CLI run
# CPU seconds of the host probe (probe.py) on the host the benchmark was
# defined on: as a fresh process, and as a call in the warm
# library_compute process. The metrics are CPU seconds scaled to a host
# as fast as that one.
PROBE_SPAWN_S = 0.3
PROBE_CALL_S = 0.025
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0",
       "TMPDIR": str(WORK), **{v: "1" for v in THREAD_VARS}}
# bytecode caching on, as for an installed package; the untimed first
# set-up probe fills the cache
for _var in ("TRANSDUCERSIM_DEVICE_PATH", "PYTHONDONTWRITEBYTECODE"):
    ENV.pop(_var, None)


class Failure(Exception):
    """A harness step (not a measured request) failed; the run is void."""


def spawn(argv, cwd, out_path, err_path):
    """Run a child to completion: (exit code, wall seconds, CPU seconds,
    ru_maxrss in MB). CPU seconds are the child's user + system time from
    ``os.wait4``."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, elapsed, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def worker(work, *args):
    """Run a worker.py subcommand and return its JSON output."""
    out, err = work / "worker.out", work / "worker.err"
    code, _, _, rss = spawn([PY, str(BENCH / "worker.py"), *map(str, args)],
                            work, out, err)
    if code != 0:
        raise Failure(f"worker {args[0]} exited {code}:\n"
                      + err.read_text(errors="replace")[-2000:])
    return json.loads(out.read_text()), rss


def sha_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def environment(numpy_version):
    """What the run's speed depends on besides the code."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fs, best = "unknown", ""
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            parts = line.split()
            if len(parts) > 2 and str(WORK).startswith(parts[1]) \
                    and len(parts[1]) >= len(best):
                best, fs = parts[1], parts[2]
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "work_dir_fs": fs,
            "work_dir_on_tmpfs": fs == "tmpfs",
            "threads": {v: ENV[v] for v in THREAD_VARS}}


# ------------------------------------------------------------------ checks

class Judge:
    """Checks every request against reference.json and the seeded truth."""

    def __init__(self, ref, truth, work):
        self.ref, self.truth, self.work = ref, truth, work
        self.suspects = {}        # (key, path, sha) -> saved copy
        self.instances = []       # [key, problems, [(key, path, sha) to compare]]
        self.bitwise = self.outputs = 0

    def _bitwise(self, equal):
        self.outputs += 1
        self.bitwise += int(equal)

    def cli(self, op, code, text):
        problems, pending = [], []
        if code != 0:
            problems.append(f"exit code {code}")
        ref = self.ref.get(op["key"])
        if ref is None:
            problems.append(f"no reference for {op['key']}")
        else:
            fp = check.text_fingerprint(text, hashlib.sha256(text.encode()).hexdigest())
            self._bitwise(fp["sha"] == ref["stdout"]["sha"])
            problems += check.compare(ref["stdout"], fp)
            for path in op.get("outputs", ()):
                full = self.work / path
                if not full.is_file():
                    problems.append(f"{path} not written")
                    continue
                sha = sha_file(full)
                self._bitwise(sha == ref["files"][path]["sha"])
                if sha != ref["files"][path]["sha"]:
                    tag = (op["key"], path, sha)
                    if tag not in self.suspects:
                        copy = self.work / "suspect" / str(len(self.suspects))
                        copy.parent.mkdir(exist_ok=True)
                        shutil.copyfile(full, copy)
                        self.suspects[tag] = copy
                    pending.append(tag)
        if op.get("truth"):
            problems += check.fit_problems(check.stdout_values(text), op["truth"],
                                           self.truth[op["truth"]])
        if op.get("identity") == "lossless_swap" and code == 0:
            _, qubit, phonons = check.rabi_row((self.work / op["outputs"][0])
                                               .read_text(), 50)
            problems += check.swap_problems(qubit, phonons)
        self.instances.append([op["key"], problems, pending])

    def library(self, op, sha, last):
        """One library request: its sha this pass; `last` = last pass's fingerprint."""
        problems = []
        ref = self.ref.get(op["key"])
        if ref is None:
            problems.append(f"no reference for {op['key']}")
        else:
            self._bitwise(sha == ref["values"]["sha"])
            if sha != ref["values"]["sha"]:
                if sha != last["sha"]:
                    problems.append("output changed between passes")
                else:
                    problems += check.compare(ref["values"], last)
        if op.get("truth"):
            problems += check.fit_problems(last["scalars"], op["truth"],
                                           self.truth[op["truth"]])
        self.instances.append([op["key"], problems, []])

    def problem(self, key, text):
        self.instances.append([key, [text], []])

    def finish(self):
        """Compare saved mismatching files numerically; return failures."""
        verdict = {}
        if self.suspects:
            tags = list(self.suspects)
            fps, _ = worker(self.work, "fingerprint",
                            *[self.suspects[t] for t in tags])
            for (key, path, sha), fp in zip(tags, fps):
                verdict[(key, path, sha)] = check.compare(
                    self.ref[key]["files"][path], fp)
        failures = []
        for key, problems, pending in self.instances:
            for tag in pending:
                problems = problems + [f"{tag[1]}: {m}" for m in verdict[tag]]
            if problems:
                failures.append((key, problems))
        return failures


# ------------------------------------------------------------------- runs

def probe_cpu(work):
    """CPU seconds of one probe process."""
    code, _, cpu, _ = spawn(PROBE, work, work / "probe.out", work / "probe.err")
    if code != 0:
        raise Failure(f"host probe exited {code}:\n"
                      + (work / "probe.err").read_text(errors="replace")[-2000:])
    return cpu


def measure_setup(work, judge, rss, probes):
    """Medians of (CPU, wall) seconds from a fresh interpreter to the bundled
    device loaded; the probe runs before each."""
    spawn([PY, "-c", SETUP_CODE], work, work / "setup.out", work / "setup.err")
    cpus, walls = [], []
    for _ in range(SETUP_RUNS):
        probes.append(probe_cpu(work))
        code, wall, cpu, peak = spawn([PY, "-c", SETUP_CODE], work,
                                      work / "setup.out", work / "setup.err")
        rss.append(peak)
        cpus.append(cpu)
        walls.append(wall)
        if code != 0:
            judge.problem("setup", f"exit code {code}")
        else:
            judge.instances.append(["setup", [], []])
    return statistics.median(cpus), statistics.median(walls)


def cli_passes(ops, work, seconds, judge, rss, probes):
    """Closed loop over passes of CLI requests until `seconds` are used.

    Returns per pass its (wall, CPU) seconds and {slot: [(wall, CPU) of
    each repeat]}; a pass's times are the sums over its requests. A probe
    process runs before a request when PROBE_EVERY_S have passed since the
    last one; its CPU seconds go to `probes`."""
    (work / "stdout").mkdir(exist_ok=True)
    deadline = time.perf_counter() + seconds
    totals, latencies, last_probe = [], [], -PROBE_EVERY_S
    while True:
        latency, codes, wall_sum, cpu_sum = {}, {}, 0.0, 0.0
        for op in (op for r in wl.rounds(ops) for op in r):
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe_cpu(work))
                last_probe = time.perf_counter()
            code, wall, cpu, peak = spawn(
                [PY, "-m", "transducersim.cli", *op["argv"]], work,
                work / "stdout" / op["slot"], work / "stderr.txt")
            latency.setdefault(op["slot"], []).append((wall, cpu))
            wall_sum, cpu_sum = wall_sum + wall, cpu_sum + cpu
            codes[op["slot"]] = codes.get(op["slot"]) or code   # first failure
            rss.append(peak)
        totals.append((wall_sum, cpu_sum))
        latencies.append(latency)
        for op in ops:
            judge.cli(op, codes[op["slot"]],
                      (work / "stdout" / op["slot"]).read_text())
        if time.perf_counter() + statistics.median(t[0] for t in totals) > deadline:
            return totals, latencies


def kind_latency(ops, latencies, clock):
    """Per kind: each request's median over all its runs, averaged over the
    kind's requests (which differ in size); `clock` is 0 for wall and 1 for
    CPU seconds. Returns {kind: (seconds, samples)}."""
    out = {}
    for kind in wl.KINDS:
        runs = [[t[clock] for lat in latencies for t in lat[op["slot"]]]
                for op in ops if op["kind"] == kind]
        out[kind] = (statistics.fmean(statistics.median(r) for r in runs),
                     sum(map(len, runs)))
    return out


def timed(args, ops, choice, work, judge):
    """The untraced run: end-to-end metrics; returns (metrics, raw figures,
    worker result, passes).

    The metrics are normalised CPU seconds: a request's CPU time, times the
    probe's reference CPU time over its median CPU time in this run. On a
    shared host a process's wall time also holds the time it waited for a
    core, and its CPU time moves with the host's speed, which other tenants
    set; the probe, run between the requests, moves with the host alone.
    The raw CPU and wall-clock figures are printed and recorded beside them."""
    rss, probes = [], []
    setup_cpu, setup_wall = measure_setup(work, judge, rss, probes)
    setup_probe = statistics.median(probes)
    res = {}
    if args.workload == "library_compute":
        res, peak = worker(work, "library", json.dumps(choice), args.seconds)
        rss.append(peak)
        totals, latencies = res["totals"], res["latencies"]
        probe_ref, run_probes = PROBE_CALL_S, res["probes"]
        for shas in res["shas"]:
            for op in ops:
                judge.library(op, shas[op["slot"]], res["fingerprints"][op["slot"]])
    else:
        n_setup = len(probes)
        totals, latencies = cli_passes(ops, work, args.seconds, judge, rss,
                                       probes)
        probe_ref, run_probes = PROBE_SPAWN_S, probes[n_setup:]
    run_probe = statistics.median(run_probes)
    scale = probe_ref / run_probe
    n = len(totals)
    metrics = {"pass_norm_s": (scale * statistics.median(t[1] for t in totals), "s",
                               f"median of {n} passes"),
               "setup_s": (PROBE_SPAWN_S / setup_probe * setup_cpu, "s",
                           f"median of {SETUP_RUNS} fresh interpreters")}
    raw = {"probe_cpu_s": (run_probe, "s", f"median of {len(run_probes)}"),
           "setup_probe_cpu_s": (setup_probe, "s", f"median of {SETUP_RUNS}"),
           "pass_cpu_s": (statistics.median(t[1] for t in totals), "s",
                          f"median of {n} passes"),
           "pass_wall_s": (statistics.median(t[0] for t in totals), "s",
                           f"median of {n} passes"),
           "setup_cpu_s": (setup_cpu, "s", f"median of {SETUP_RUNS}"),
           "setup_wall_s": (setup_wall, "s", f"median of {SETUP_RUNS}")}
    for clock, suffix in ((1, "cpu_s"), (0, "wall_s")):
        for kind, (value, samples) in kind_latency(ops, latencies, clock).items():
            how = f"{samples} requests in {n} passes"
            raw[f"{kind}_{suffix}"] = (value, "s", how)
            if clock == 1:
                metrics[f"{kind}_norm_s"] = (scale * value, "s", how)
    metrics["peak_rss_mb"] = (max(rss), "MB", f"max of {len(rss)} processes")
    return metrics, raw, res, n


def traced(args, ops, choice, work, judge):
    """The traced in-process run: per-layer metrics of BENCHMARK.json."""
    res, _ = worker(work, "trace", args.workload, json.dumps(choice), work,
                    args.seconds)
    for op in ops:
        if args.workload == "library_compute":
            fp = res["fingerprints"][op["slot"]]
            judge.library(op, fp["sha"], fp)
        else:
            judge.cli(op, res["cli"][op["slot"]]["code"],
                      res["cli"][op["slot"]]["stdout"])
    metrics = {name: (res["layers"].get(name, 0.0), unit, "")
               for name, unit in per_layer()}
    return metrics, {}, res, 1


def run(args, work, ref):
    """One run: (metrics, notes for the record, attempted, failed)."""
    choice = wl.choose(args.workload, args.seed)
    ops = wl.ops(args.workload, choice)
    generated, _ = worker(work, "gen", args.workload, json.dumps(choice), work)
    host_ref = [worker(work, "hostref")[0]["host_ref_s"]] if args.trace else []
    judge = Judge(ref, generated["truth"], work)
    t_run = time.perf_counter()
    metrics, raw, res, passes = (traced if args.trace else timed)(
        args, ops, choice, work, judge)
    for name, values in res.get("identities", {}).items():
        judge.instances.append([f"identity:{name}",
                                check.identity_problems(name, values), []])
    failures = judge.finish()
    run_s = time.perf_counter() - t_run
    if args.trace:
        host_ref.append(worker(work, "hostref")[0]["host_ref_s"])
    bitwise, outputs = judge.bitwise // passes, judge.outputs // passes
    if args.trace:
        metrics["outputs.bitwise_equal"] = (bitwise, "count", "")
        metrics["outputs.checked"] = (outputs, "count", "")
        metrics["env.host_ref_s"] = (statistics.fmean(host_ref), "s", "")
    attempted = len(judge.instances)
    notes = {"choice": choice, "env": environment(generated["numpy"]),
             "host_ref_s": host_ref, "run_s": run_s, "raw": raw,
             "failures": failures[:20],
             "fail_ratio": len(failures) / attempted,
             "bitwise_equal_per_pass": bitwise, "outputs_per_pass": outputs,
             "layers": res.get("layers"), "pass_totals": res.get("totals")}
    return metrics, notes, attempted, len(failures)


def per_layer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def report(args, metrics, notes, attempted, failed):
    print(f"transducersim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"inputs: {json.dumps(notes['choice'], sort_keys=True)}")
    env = notes["env"]
    print(f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} "
          f"work_dir_fs={env['work_dir_fs']} threads=1")
    if notes["host_ref_s"]:
        print("env.host_ref_s: start={:.4f} end={:.4f}".format(*notes["host_ref_s"]))
    for name, (value, unit, how) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({how})" if how else ""))
    for name, (value, unit, how) in notes["raw"].items():
        print(f"not a metric: {name} = {value:.6g} {unit}  ({how})")
    print(f"fail_ratio = {notes['fail_ratio']:.6g}  ({failed} of {attempted} "
          "checked requests failed)")
    print(f"outputs.bitwise_equal = {notes['bitwise_equal_per_pass']} of "
          f"{notes['outputs_per_pass']} outputs per pass")
    for key, problems in notes["failures"]:
        print(f"FAILED {key}: {'; '.join(problems[:3])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))


# ---------------------------------------------------------------- record

def record():
    """Fingerprint every output of every input variant into reference.json."""
    out = {}
    WORK.mkdir(exist_ok=True)
    for workload in wl.WORKLOADS:
        for choice in wl.all_choices(workload):
            work = WORK / f"record-{workload}"
            shutil.rmtree(work, ignore_errors=True)
            (work / "out").mkdir(parents=True)
            ops = wl.ops(workload, choice)
            if workload == "library_compute":
                res, _ = worker(work, "library", json.dumps(choice), 0)
                for op in ops:
                    out[op["key"]] = {"values": res["fingerprints"][op["slot"]]}
                continue
            worker(work, "gen", workload, json.dumps(choice), work)
            for op in ops:
                code, *_ = spawn([PY, "-m", "transducersim.cli", *op["argv"]], work,
                                   work / "stdout.txt", work / "stderr.txt")
                if code != 0:
                    raise Failure(f"{op['key']} exited {code}")
                text = (work / "stdout.txt").read_text()
                files = op.get("outputs", [])
                fps, _ = worker(work, "fingerprint", *files) if files else ([], 0)
                out[op["key"]] = {
                    "stdout": check.text_fingerprint(
                        text, hashlib.sha256(text.encode()).hexdigest()),
                    "files": dict(zip(files, fps))}
            shutil.rmtree(work)
            print(f"recorded {workload} {choice}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {len(out)} request fingerprints to {REFERENCE}", file=sys.stderr)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "transducersim" / "__init__.py").is_file():
        print(f"error: {SRC}/transducersim not found; run from the root of a "
              "transducersim checkout", file=sys.stderr)
        return 2
    try:
        if args.record:
            return record()
        if args.workload is None:
            parser.error("--workload is required")
        ref = json.loads(REFERENCE.read_text())
        work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        (work / "out").mkdir(parents=True)
        try:
            metrics, notes, attempted, failed = run(args, work, ref)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except Failure as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    (WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"metrics": metrics, **notes}, indent=1, default=str))
    report(args, metrics, notes, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
