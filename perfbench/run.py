"""lcpforge benchmark: cold CLI certification, field reports and a warm API session.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload everyday-128 --seed 1 --seconds 50 --trace 0

One client, one operation at a time (closed loop).  A cold operation is
`lcpforge.cli.main(argv)` in a fresh interpreter (perfbench/op.py), so the
embedding and cyclotomic caches start empty; the API session runs all of
its operations in one warm interpreter.  The run repeats whole passes over the
workload's fixed operation list while the next pass is expected to finish
within --seconds (at least one pass) and reports each operation's median.

Every output is checked against perfbench/expected.json: exit code,
verdict and SHA-256 of the certificate or report, per operation and per
operation seed.  The last line of stdout is one JSON object with the
metrics; with --trace 1 the run makes one traced pass and reports the
per-layer metrics and the tracing overhead instead.
Details of every run go to .perfbench-out/.

The machine's cores are shared and its speed changes by up to 1.5x, for
seconds or for minutes.  So an untraced run reports its times at the
reference speed of a speed probe (probe.py), each time scaled by the probe
times taken in the same process at the same moment: just before and every
0.2 s during each operation, and right after the import in each set-up
process.  The measured seconds are printed and written to .perfbench-out/
as well.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
OP_SEEDS = 4  # expected.json holds outcomes for operation seeds 0..3
SETUP_SAMPLES = 5  # taken twice: before and after the passes
DEADLINE_S = 170  # the whole run must end within 180 s

SUITE_128 = [
    ["ranklcp", "--n", "1"],
    ["ranklcp", "--n", "2"],
    ["ranklcp", "--n", "3"],
    ["ranklcp", "--n", "4"],
    ["worked-example"],
    ["kourganoff", "--q", "1", "--matrix", "2,1;1,1"],
    ["kourganoff", "--q", "2", "--matrix", "0,0,1;1,0,1;0,1,0"],
    ["ot", "--minpoly", "x^3-x-1", "--units", "0,1,0"],
    ["ot", "--minpoly", "x^4-x-1", "--units", "0,1,0,0;-1,1,0,0", "--lck"],
]
# inputs outside the documented domains: both must exit 2
NEGATIVE_CONTROLS = [
    ["kourganoff", "--q", "3", "--matrix", "2,1;1,1"],
    ["ot", "--minpoly", "x^3+x^2-2x-1", "--units", "0,1,0"],
]
PRECISION_LADDER = [
    (["ranklcp", "--n", "1"], 512),
    (["ranklcp", "--n", "2"], 512),
    (["ot", "--minpoly", "x^3-x-1", "--units", "0,1,0"], 512),
    (["kourganoff", "--q", "1", "--matrix", "2,1;1,1"], 1024),
]
FIELD_REPORTS = [
    ["exfield", "--n", "16"],
    ["exfield", "--n", "20"],
    ["dmatrix", "--n", "8"],
]
API_SESSION = [
    {"pipeline": "ranklcp", "n": 1},
    {"pipeline": "ranklcp", "n": 2},
    {"pipeline": "ot", "minpoly": [-1, -1, 0, 1]},  # x^3 - x - 1
]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_geomean_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {  # by the last part of the metric name
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "bits_sum": "bits",
    "escalations": "count",
    "max_bits_ratio": "ratio",
    "hits": "count",
    "misses": "count",
    "hit_ratio": "ratio",
    "cert_bytes": "bytes",
    "geomean_s": "s",
    "wall_s": "s",
    "spans": "count",
    "overhead_s": "s",
}


# --------------------------------------------------------------------------
# workloads: each is a list of units; a unit's steps run in order, and the
# seed shuffles the units and the constructions of the API session.
# Two workloads of about 40 s each: on a shared 2-core machine a run needs
# that much measured time for a quartile spread well under the bounds, and
# 48 runs of two workloads fit the time a comparison may take even when the
# machine runs at two thirds of its speed.


def _cli(label, argv, bits, out=None):
    return {"kind": "cli", "label": label, "argv": argv, "bits": bits, "out": out}


def _build_and_verify(args, bits, op_seed, workdir, verify):
    label = "%s @%d" % (" ".join(args), bits)
    path = os.path.join(workdir, "".join(c if c.isalnum() else "-" for c in label) + ".json")
    argv = args + ["--precision", str(bits), "--seed", str(op_seed)]
    if not verify:
        return [_cli(label, argv, bits)]
    return [
        _cli(label, argv + ["--out", path], bits, out=path),
        _cli("verify " + label, ["verify", path], bits),
    ]


def api_session(op_seed, rng):
    """The warm session: one unit, so all of it runs in one interpreter."""
    steps = []
    for item in rng.sample(API_SESSION, len(API_SESSION)):
        name = "ranklcp --n %d" % item["n"] if "n" in item else "ot x^3-x-1"
        steps += [
            dict(item, kind="api", action="build", precision=128, bits=128,
                 seed=op_seed, cert=name, label="api build %s @128" % name),
            {"kind": "api", "action": "verify", "cert": name, "precision": None,
             "bits": 128, "label": "api verify %s @stored" % name},
            {"kind": "api", "action": "verify", "cert": name, "precision": 256,
             "bits": 256, "label": "api verify %s @256" % name},
        ]
    return steps


def everyday_128(op_seed, workdir, rng):
    units = [_build_and_verify(a, 128, op_seed, workdir, True) for a in SUITE_128]
    units += [_build_and_verify(a, 128, op_seed, workdir, False) for a in NEGATIVE_CONTROLS]
    return units + [api_session(op_seed, rng)]


def heavy_exact(op_seed, workdir, rng):
    units = [_build_and_verify(a, b, op_seed, workdir, False) for a, b in PRECISION_LADDER]
    return units + [[_cli(" ".join(a), a + ["--seed", str(op_seed)], 128)] for a in FIELD_REPORTS]


WORKLOADS = {
    "everyday-128": everyday_128,
    "heavy-exact": heavy_exact,
}

# What each workload exists to exercise, checked against the trace.
CLAIMS = {
    "everyday-128": (
        "lcpcore self time is at least a third of the traced wall time",
        "a warm API verify at the stored precision costs 40-60% of its build",
    ),
    "heavy-exact": (
        "refine_root and numberfield hold at least 90% of the traced wall time",
        "lcpcore self time is under 5% of the traced wall time",
    ),
}


def check_claims(workload, layers, ops):
    """[(claim, confirmed, detail)] for the workload's CLAIMS."""
    wall = sum(o["seconds"] for o in ops)
    share = {k[: -len(".self_s")]: v / wall for k, v in layers.items() if k.endswith(".self_s")}
    if workload == "everyday-128":
        builds = sum(o["seconds"] for o in ops if o["label"].startswith("api build"))
        warm = sum(o["seconds"] for o in ops if o["label"].endswith("@stored"))
        results = [(share["lcpcore"] >= 1 / 3, "lcpcore %.2f" % share["lcpcore"]),
                   (0.4 <= warm / builds <= 0.6, "warm verify / build %.3f" % (warm / builds))]
    else:
        main = share["polynomials.refine_root"] + share["numberfield"]
        results = [(main >= 0.9, "refine_root %.2f + numberfield %.2f"
                    % (share["polynomials.refine_root"], share["numberfield"])),
                   (share["lcpcore"] < 0.05, "lcpcore %.3f" % share["lcpcore"])]
    return [(claim, ok, detail) for claim, (ok, detail) in zip(CLAIMS[workload], results)]


# --------------------------------------------------------------------------
# running


class Runner:
    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if not k.startswith("LCPFORGE_")}
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env

    def child(self, args):
        """Run op.py; returns (seconds, parsed last line or None, stderr)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "op.py")] + args,
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, None, "timed out"
        seconds = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return seconds, None, proc.stderr.strip()
        return seconds, json.loads(lines[-1]), proc.stderr

    def run_pass(self, units, trace):
        """One pass; returns (outcomes in run order, peak RSS in kB, layers).

        A cold step gets a fresh interpreter; the API session, one unit of
        api steps, shares one."""
        specs = []
        for unit in units:
            specs += [unit] if unit[0]["kind"] == "api" else [[step] for step in unit]
        outcomes, rss, layers = [], 0, []
        for steps in specs:
            _, result, err = self.child(["run", json.dumps({"trace": trace, "steps": steps})])
            if result is None:
                outcomes += [{"label": s["label"], "seconds": None, "error": err} for s in steps]
                break
            outcomes += result["ops"]
            rss = max(rss, result["maxrss_kb"])
            if trace:
                layers.append(result["layers"])
        return outcomes, rss, layers


def sample_setup(runner, count):
    """Time `count` processes that start Python and import lcpforge.cli.

    Returns [(seconds, scale)]: each process's time without the probe it
    runs after the import, and the probe's reference time over its mean."""
    samples, facts = [], None
    for _ in range(count):
        seconds, facts, err = runner.child(["facts"])
        if facts is None:
            sys.stderr.write("error: cannot import lcpforge: %s\n" % err)
            return samples, None
        probes = facts.pop("probe_s")
        samples.append((seconds - sum(probes), probe.REF_S / statistics.fmean(probes)))
    return samples, facts


def merge_layers(parts):
    out = {}
    for part in parts:
        for key, value in part.items():
            if key == "embeddings.max_bits_ratio":
                out[key] = max(out.get(key, 0.0), value)
            else:
                out[key] = out.get(key, 0) + value
    lookups = out["embeddings.cache.hits"] + out["embeddings.cache.misses"]
    out["embeddings.cache.hit_ratio"] = out["embeddings.cache.hits"] / lookups if lookups else 0.0
    return out


def check(outcome, expected):
    """Reason the outcome differs from its recorded expectation, or None."""
    if outcome["seconds"] is None:
        return "did not finish: %s" % outcome["error"][-300:]
    if expected is None:
        return "no recorded expectation"
    for key in ("rc", "verdict", "bit_identical", "sha256"):
        if outcome[key] != expected[key]:
            return "%s is %r, expected %r %s" % (key, outcome[key], expected[key],
                                                 outcome["error"])
    return None


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this seed's outcomes to expected.json instead of checking")
    args = parser.parse_args()

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lcpforge", "cli.py")):
        sys.stderr.write("error: run from the root of an lcpforge checkout (no src/lcpforge)\n")
        return 2
    runner = Runner(root, started + DEADLINE_S)

    # set-up: interpreter start + import of every lcpforge module, sampled
    # before and after the passes so one slow spell of the machine does not
    # decide the median
    setup, facts = sample_setup(runner, SETUP_SAMPLES)
    if facts is None:
        return 2
    if not facts["lcpforge_file"].startswith(os.path.join(root, "src") + os.sep):
        sys.stderr.write("error: lcpforge imported from %s\n" % facts["lcpforge_file"])
        return 2
    facts["commit"] = git_commit(root)

    t0 = time.perf_counter()
    op_seed = args.seed % OP_SEEDS
    os.makedirs(os.path.join(root, ".perfbench-out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(root, ".perfbench-out"))
    rng = random.Random(args.seed)
    units = WORKLOADS[args.workload](op_seed, workdir, rng)
    rng.shuffle(units)
    inputs_s = time.perf_counter() - t0

    try:
        # a traced run makes exactly one pass: its layer metrics are sums
        passes, rss, layers = [], 0, []
        start = time.monotonic()
        while True:
            pass_start = time.monotonic()
            outcomes, pass_rss, parts = runner.run_pass(units, bool(args.trace))
            passes.append(outcomes)
            layers += parts
            rss = max(rss, pass_rss)
            now = time.monotonic()
            if (args.trace or args.record or any(o["seconds"] is None for o in outcomes)
                    or now - start + (now - pass_start) > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    more, _ = sample_setup(runner, SETUP_SAMPLES)
    setup += more or []
    setup_s = statistics.median(seconds * scale for seconds, scale in setup) + inputs_s

    if args.record:
        return record(args.workload, op_seed, passes[0])

    with open(EXPECTED) as handle:
        expected = json.load(handle).get(args.workload, {})
    failures = []
    for outcomes in passes:
        for o in outcomes:
            reason = check(o, expected.get(o["label"], {}).get(str(op_seed)))
            if reason:
                failures.append("%s: %s" % (o["label"], reason))
    attempted = sum(len(p) for p in passes)

    labels = [o["label"] for o in passes[0]]
    times = {label: [] for label in labels}
    scaled = {label: [] for label in labels}  # at the reference speed
    for outcomes in passes:
        for o in outcomes:
            if o["seconds"] is not None:
                times[o["label"]].append(o["seconds"])
            if o["seconds"] is not None and o["probe_s"]:
                scaled[o["label"]].append(
                    o["seconds"] * probe.REF_S / statistics.fmean(o["probe_s"]))
    medians = {label: statistics.median(v) for label, v in times.items() if v}
    complete = len(medians) == len(labels)

    summary = {"workload": args.workload, "seed": args.seed, "op_seed": op_seed,
               "trace": args.trace, "passes": len(passes), "facts": facts,
               "setup_samples_s": setup, "op_median_s": medians,
               "failures": failures, "fail_share": len(failures) / attempted}
    metrics = {}
    if complete and args.trace:
        metrics = merge_layers(layers)
        verifies = [medians[label] for label in labels if "verify" in label]
        metrics["verify.geomean_s"] = geomean(verifies) if verifies else 0.0
        # at the reference speed, to set against the untraced wall_s
        metrics["trace.wall_s"] = sum(statistics.median(scaled[label]) for label in labels)
        summary["claims"] = check_claims(args.workload, metrics, passes[0])
    elif complete:
        summary["op_scaled_s"] = {label: statistics.median(scaled[label]) for label in labels}
        op_s = list(summary["op_scaled_s"].values())
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(op_s),
            "op_geomean_s": geomean(op_s),
            "peak_rss_mb": rss / 1024.0,
        }
        summary["measured_s"] = {
            "setup_s": statistics.median(seconds for seconds, _ in setup) + inputs_s,
            "wall_s": sum(medians.values()),
            "op_geomean_s": geomean(list(medians.values())),
        }
    units_of = {name: END_TO_END.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[1]]
                for name in metrics}

    out_path = os.path.join(root, ".perfbench-out", "%s-seed%d-trace%d.json"
                            % (args.workload, args.seed, args.trace))
    summary["metrics"] = metrics
    with open(out_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)

    for failure in failures:
        sys.stderr.write("FAILED %s\n" % failure)
    print("facts %s" % json.dumps(facts, sort_keys=True))
    print("%s seed %d (operation seed %d): %d pass(es), %d operations, fail_share %.3f"
          % (args.workload, args.seed, op_seed, len(passes), attempted,
             summary["fail_share"]))
    if "measured_s" in summary:
        print("measured, not scaled: %s" % ", ".join(
            "%s %.6f s" % kv for kv in sorted(summary["measured_s"].items())))
    for claim, ok, detail in summary.get("claims", []):
        print("claim %s: %s (%s)" % ("CONFIRMED" if ok else "REFUTED", claim, detail))
    for name in sorted(metrics):
        print("%-44s %14.6f %s" % (name, metrics[name], units_of[name]))
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def record(workload, op_seed, outcomes):
    """Store the outcomes of one untraced pass as the expectation."""
    if any(o["seconds"] is None for o in outcomes):
        sys.stderr.write("error: not recording an incomplete pass\n")
        return 1
    with open(EXPECTED) as handle:
        expected = json.load(handle)
    table = expected.setdefault(workload, {})
    for o in outcomes:
        table.setdefault(o["label"], {})[str(op_seed)] = {
            key: o[key] for key in ("rc", "verdict", "bit_identical", "sha256")
        }
    with open(EXPECTED, "w") as handle:
        handle.write(render_expected(expected))
    print("recorded %d outcomes for %s, operation seed %d" % (len(outcomes), workload, op_seed))
    return 0


def render_expected(expected):
    """JSON with one line per recorded outcome, so diffs stay readable."""
    blocks = []
    for workload in sorted(expected):
        ops = []
        for label in sorted(expected[workload]):
            seeds = expected[workload][label]
            rows = ",\n".join("      %s: %s" % (json.dumps(s), json.dumps(seeds[s], sort_keys=True))
                              for s in sorted(seeds))
            ops.append("    %s: {\n%s\n    }" % (json.dumps(label), rows))
        blocks.append("  %s: {\n%s\n  }" % (json.dumps(workload), ",\n".join(ops)))
    return "{\n%s\n}\n" % ",\n".join(blocks)


if __name__ == "__main__":
    sys.exit(main())
