"""uqlab benchmark: three workloads driven through the uqlab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass calls ``uqlab.cli.main`` in
this process, one pass at a time, on inputs generated from the seed:
``ladder-default`` and ``ladder-inference`` run ``uqlab run`` on a
config JSON, ``external-report`` runs ``uqlab report`` on prediction
CSVs. Every pass's outputs are checked and hashed; a pass fails on a
nonzero exit code, a failed check, or outputs that differ from another
pass of the same seed and source tree.

With ``--trace 0`` the passes repeat for about S seconds, one untimed
guard pass on fixed inputs follows (it yields the result guards), and
the end-to-end metrics are printed. With ``--trace 1`` one untraced and one
traced pass run, followed by the fixed-shape micro set, and the
per-module metrics are printed. The last line of standard output is one
JSON object; the lines before it give the same numbers for reading.
"""

import envinfo

envinfo.pin_blas_threads()  # before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import GUARD_SEED, GUARDS, WORKLOADS, Workload, make_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / ".bench_results"
# Set-up repeats: at least 3, more while they add up to under 2 s.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 2.0
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "pred_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    **{name: "ratio" for name in checks.GUARDS},
}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import uqlab from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "uqlab" / "__init__.py").is_file():
        raise ProgramMissing(f"no uqlab sources under {src}")
    sys.path.insert(0, str(src))
    import uqlab
    import uqlab.cli

    if Path(uqlab.__file__).resolve().parent != (src / "uqlab").resolve():
        raise ProgramMissing(f"uqlab was imported from {uqlab.__file__}, not {src}")
    return uqlab


def _rss_bytes() -> int:
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError):
        return 0


def _maxrss_bytes() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class PeakRss:
    """Peak resident memory over a block, in MB.

    A pass that raises the process high-water mark gets that exact value;
    otherwise the peak comes from sampling the resident size every 20 ms.
    """

    INTERVAL = 0.02

    def __enter__(self):
        self._hwm = _maxrss_bytes()
        self._peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.wait(self.INTERVAL):
            self._peak = max(self._peak, _rss_bytes())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        peak = max(self._peak, _rss_bytes())
        hwm = _maxrss_bytes()
        if hwm > self._hwm:
            peak = max(peak, hwm)
        self.mb = peak / 2**20
        return False


@dataclass
class Pass:
    wall: float
    rss_mb: float
    exit_code: int
    traced: bool
    errors: list = field(default_factory=list)
    guards: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.errors


def set_up(workload: Workload, seed: int, inputs: Path) -> tuple[list[float], list[str]]:
    """Generate the inputs several times, each in a fresh interpreter."""
    times, digests = [], []
    cmd = [sys.executable, str(ROOT / "perfbench" / "make_inputs.py"),
           "--workload", workload.name, "--seed", str(seed), "--out", str(inputs)]
    while len(times) < SETUP_MIN or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX):
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)  # a timeout would poll, in 50 ms steps
        times.append(time.perf_counter() - t0)
        digests.append(checks.tree_sha256(inputs))
    if any(d != digests[0] for d in digests):
        return times, ["input generation gave different bytes for one seed"]
    return times, []


def run_pass(uqlab, argv: list[str], outdir: Path, traced: bool) -> Pass:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.parent.mkdir(parents=True, exist_ok=True)
    sink = io.StringIO()
    with PeakRss() as rss, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        try:
            code = uqlab.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed pass; keep measuring the rest
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
    return Pass(wall, rss.mb, code, traced)


def check_pass(p: Pass, outdir: Path, workload: Workload, reference, store: Path, sngp) -> dict:
    """Fill in the pass's errors and guards; return its manifest."""
    manifest = checks.tree_sha256(outdir) if outdir.is_dir() else {}
    if p.exit_code != 0:
        p.errors.append(f"uqlab exited with code {p.exit_code}")
        return manifest
    p.guards, errors = checks.check_report(outdir, workload)
    p.errors.extend(errors)
    if workload.command == "run":
        p.errors.extend(checks.check_prediction_files(outdir / "predictions", workload))
    if sngp is not None:
        p.errors.extend(checks.check_sngp_variance(*sngp))
    if reference is not None:
        p.errors.extend(checks.compare_manifests(reference, manifest, "the first pass"))
    p.errors.extend(checks.check_stored_manifest(store, manifest))
    return manifest


def manifest_store(name: str, seed: int, env: dict) -> Path:
    """Where the manifest of a seed's outputs on this source tree is kept."""
    return RESULTS / "manifests" / f"{name}-seed{seed}-{env['src_sha256'][:16]}.json"


def guard_pass(uqlab, workload: Workload, work: Path, env: dict) -> Pass:
    """One untimed, checked pass on the fixed guard inputs of ``workload``."""
    guard = GUARDS[workload.name]
    inputs, outdir = work / "guard" / "inputs", work / "guard" / "out"
    paths = make_inputs(guard, GUARD_SEED, inputs)
    argv = ["run", "--config", str(paths[0])] if guard.command == "run" else ["report", *paths]
    p = run_pass(uqlab, [*map(str, argv), "--out", str(outdir)], outdir, traced=False)
    if guard.command == "report":
        p.errors.extend(checks.check_prediction_files(inputs, guard))
    manifest = check_pass(p, outdir, guard, None, manifest_store(guard.name, GUARD_SEED, env), None)
    checks.write_manifest(manifest, work / "guard.sha256")
    shutil.rmtree(work / "guard", ignore_errors=True)
    for err in p.errors:
        print(f"perfbench: guard pass: {err}", file=sys.stderr)
    return p


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            return pct, statistics.quantiles(values, n=1000, method="inclusive")[int(pct * 10) - 1]
    return None


def measure(uqlab, workload: Workload, args, work: Path, base_argv, ladder, store):
    """Run the passes; the second pass of a traced run is the traced one."""
    passes: list[Pass] = []
    reference = None
    spans, clamped = [], 0
    started = time.perf_counter()
    while True:
        k = len(passes)
        traced = bool(args.trace) and k == 1
        outdir = work / f"pass{k}" / "out"
        with contextlib.ExitStack() as stack:
            if traced:
                tracer = stack.enter_context(tracing.Tracer())
                clamp = stack.enter_context(tracing.ClampCounter())
            # Keeps the trained GP head for the criterion-06b check: one
            # extra Python call per pass, not a span.
            capture = None
            if workload.name == "ladder-default":
                capture = stack.enter_context(tracing.Capture("uq", "train_sngp"))
            p = run_pass(uqlab, [*base_argv, "--out", str(outdir)], outdir, traced)
        if traced:
            spans, clamped = tracer.spans, clamp.count
        sngp = (*capture.value, ladder) if capture is not None and capture.value else None
        manifest = check_pass(p, outdir, workload, reference, store, sngp)
        checks.write_manifest(manifest, outdir.parent / "manifest.sha256")
        shutil.rmtree(outdir, ignore_errors=True)
        reference = reference or manifest
        passes.append(p)
        for err in p.errors:
            print(f"perfbench: pass {k}: {err}", file=sys.stderr)
        if args.trace:
            if len(passes) == 2:
                return passes, spans, clamped
        else:
            next_end = time.perf_counter() - started + statistics.median(q.wall for q in passes)
            if next_end > args.seconds:
                return passes, spans, clamped


def end_to_end(passes: list[Pass], guard: Pass, setup_times: list[float], workload: Workload):
    walls = [p.wall for p in passes]
    wall = statistics.median(walls)
    guards = guard.guards if guard.ok else dict.fromkeys(checks.GUARDS, 0.0)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "pred_rows_per_s": workload.pred_rows() / wall,
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        **guards,
    }
    tail = tail_percentile(walls)
    tail_text = f"p{tail[0]:g}={tail[1]:.4f} s" if tail else "(no percentile has 10 samples beyond)"
    print(f"wall_s samples={len(walls)} median={wall:.4f} s {tail_text}")
    failed = sum(not p.ok for p in [*passes, guard])
    print(f"failed_frac {failed}/{len(passes) + 1} = {failed / (len(passes) + 1):.4f}")
    return {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}


def per_layer(passes: list[Pass], spans, clamped: int, work: Path) -> dict:
    from micro import run_micro

    values = tracing.layer_metrics(spans)
    values["uq.variance_clamped.count"] = clamped
    values["trace.overhead_s"] = passes[1].wall - passes[0].wall
    values.update(run_micro(work))
    return {name: {"value": v, "unit": _layer_unit(name)} for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        uqlab = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = RESULTS / workload.name / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = envinfo.environment(ROOT)
    store = manifest_store(workload.name, args.seed, env)

    inputs = work / "inputs"
    setup_times, input_errors = set_up(workload, args.seed, inputs)
    ladder = None
    if workload.command == "run":
        cfg = uqlab.load_config(inputs / "config.json")
        ladder = uqlab.make_ladder(cfg.ladder, args.seed)
        base_argv = ["run", "--config", str(inputs / "config.json")]
    else:
        input_errors += checks.check_prediction_files(inputs, workload)
        base_argv = ["report", *(str(inputs / name) for name in workload.pred_files())]
    for err in input_errors:
        print(f"perfbench: inputs: {err}", file=sys.stderr)

    passes, spans, clamped = measure(uqlab, workload, args, work, base_argv, ladder, store)
    shutil.rmtree(inputs, ignore_errors=True)
    if args.trace:
        try:
            tracing.check_coverage(spans, workload.name)
        except tracing.CoverageError as exc:
            print(f"perfbench: span coverage guard failed: {exc}", file=sys.stderr)
            return 1
        metrics = per_layer(passes, spans, clamped, work)
    else:
        guard = guard_pass(uqlab, workload, work, env)
        metrics = end_to_end(passes, guard, setup_times, workload)
        passes.append(guard)

    failed = sum(not p.ok for p in passes)
    result = {
        "correct": failed == 0 and not input_errors,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_times_s": setup_times,
        "passes": [p.__dict__ for p in passes],
        **result,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    units = {
        "s": "s", "self_s": "s", "overhead_s": "s", "us": "us", "step_us": "us",
        "us_per_row": "us", "bytes": "bytes", "ratio": "ratio", "gflop_computed": "GFLOP",
        "save_s_per_100k": "s", "load_s_per_100k": "s",
    }
    return units.get(last, "count")


if __name__ == "__main__":
    sys.exit(main())
