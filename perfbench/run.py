"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-tall --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The metric names and units are read from ``BENCHMARK.json``, and
every declared metric is printed.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment (thread pinning, versions, peak-RSS method).
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys

import common

WORKLOADS = ("fit-tall", "offline-dense", "serve-mixed")

#: obs stage paths reported as obs.stage.<path>.s (``/`` becomes ``.``).
OBS_STAGES = (
    "gebe_p",
    "gebe_p/normalize",
    "gebe_p/rsvd/power_iter",
    "gebe_p/rsvd/rayleigh_ritz",
    "gebe_p/project",
    "gebe",
    "gebe/normalize",
    "gebe/ksi",
    "gebe/project",
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _declared() -> dict:
    spec_path = common.ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"{spec_path} is missing")
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# ---------------------------------------------------------------------------
# Per-layer read-out
# ---------------------------------------------------------------------------
def _layer_metrics(layers: dict, counters: dict) -> dict:
    """Span totals and counters under the declared per-layer names.

    The kernel layers are leaves (the Gram kernel's inner products are
    folded into it), so their inclusive time is also their self time.
    """

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0)

    out = {
        "linalg.thin_qr.calls": calls("linalg.thin_qr"),
        "linalg.thin_qr.s": total("linalg.thin_qr"),
        "linalg.thin_qr.flops": counters.get("linalg.thin_qr.flops", 0.0),
        "linalg.thin_qr.bytes": counters.get("linalg.thin_qr.bytes", 0.0),
        "linalg.sparse_matmul.calls": calls("linalg.sparse_matmul"),
        "linalg.sparse_matmul.s": total("linalg.sparse_matmul"),
        "linalg.sparse_matmul.nnz_cols": counters.get("linalg.sparse_matmul.nnz_cols", 0.0),
        "linalg.gram_apply.calls": calls("linalg.gram_apply"),
        "linalg.gram_apply.s": total("linalg.gram_apply"),
        "core.normalize_weights.s": total("core.normalize_weights"),
        "core.fit.s": total("core.fit"),
        "core.fit.unattributed_s": layers.get("core.fit", {}).get("self_s", 0.0),
        "graph.build_graph_store.s": total("graph.build_graph_store"),
        "graph.build_graph_store.cpu_s": counters.get("graph.build_graph_store.cpu_s", 0.0),
        "graph.build_graph_store.edges_read": counters.get("graph.build_graph_store.edges_read", 0),
        "graph.build_graph_store.bytes": counters.get("graph.build_graph_store.bytes", 0),
        "serve.publish.s": total("serve.publish"),
        "serve.publish.bytes": counters.get("serve.publish.bytes", 0),
        "serve.load.s": total("serve.load"),
        "tasks.h_diagonal.s": total("tasks.h_diagonal"),
        "serve.top_items.calls": calls("serve.top_items"),
        "serve.top_items.s": total("serve.top_items"),
        "serve.top_items.users": counters.get("serve.top_items.users", 0),
        "serve.similar.calls": calls("serve.similar"),
        # Every H-diagonal call runs inside a similarity query (the first
        # one, in the warm-up, computes it); report it on its own line.
        "serve.similar.s": total("serve.similar") - total("tasks.h_diagonal"),
        "serve.similar.matvecs": counters.get("serve.similar.matvecs", 0),
    }
    return out


def _obs_metrics(collector) -> dict:
    ops = collector.ops.to_dict()
    out = {
        "obs.sparse_matvecs": ops["sparse_matvecs"],
        "obs.qr_factorizations": ops["qr_factorizations"],
        "obs.flops": ops["flops"],
        "obs.ooc_bytes_copied": collector.ooc_bytes_copied,
    }
    flat = collector.timer.flatten()
    for path in OBS_STAGES:
        record = flat.get(path)
        out[f"obs.stage.{path.replace('/', '.')}.s"] = record.seconds if record else 0.0
    return out


def _fit_traced(workload: str, seed: int) -> dict:
    import fits
    from spans import Tracer

    tracer = Tracer()
    runner = fits.fit_tall_traced if workload == "fit-tall" else fits.offline_dense_traced
    run = runner(seed, tracer)
    values = _layer_metrics(tracer.layer_times(), tracer.counters)
    values.update(_obs_metrics(run["collector"]))
    values["trace_overhead"] = run["trace_overhead"]
    return {"attempted": run["attempted"], "failed": run["failed"], "metrics": values}


def _serve_traced(seed: int, seconds: float) -> dict:
    import serving

    run = serving.serve_mixed_traced(seed, seconds)
    spans = run["spans"]
    values = _layer_metrics(spans["layers"], spans["counters"])
    samples = spans["samples"]
    batch = samples.get("serve.batcher.batch", [])
    scored = spans["counters"].get("serve.batcher.requests", 0)
    wasted = spans["counters"].get("serve.batcher.wasted", 0)
    server = run["server_metrics"]
    values.update(
        {
            "trace_overhead": run["trace_overhead"],
            "serve.batcher.mean_batch": sum(batch) / len(batch) if batch else 0.0,
            "serve.batcher.wait_ms": statistics.median(samples.get("serve.batcher.wait_ms", [0.0])),
            "serve.http.request_ms": server["stages"].get("request", {}).get("p50_ms", 0.0),
            "serve.shed": server["counters"]["shed"],
            "serve.deadline_exceeded": server["counters"]["deadline_exceeded"],
            "serve.useful_share": 1.0 - wasted / scored if scored else 1.0,
        }
    )
    lateness = []
    for key, row in serving.summarize(run["phases"]).items():
        values[f"client.{key}_p50_ms"] = row["p50_ms"]
        values[f"client.{key}_p95_ms"] = row["p95_ms"]
        values[f"client.{key}_n"] = row["n"]
    for phase in run["phases"].values():
        lateness += [r[2] for r in phase["results"]]
    high = run["phases"]["high"]
    values["client.high.slo_share"] = sum(
        1 for r in high["results"] if r[3] and r[1] <= serving.SLO_MS
    ) / len(high["results"])
    values["gen.conns_busy_share"] = high["busy_share"]
    values["gen.lateness_ms"] = common.nearest_rank(lateness, 95)
    return {"attempted": run["attempted"], "failed": run["failed"], "metrics": values}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not (common.SRC / "repro" / "__init__.py").is_file():
        _fail(f"the program's sources are missing ({common.SRC / 'repro'})")
    declared = _declared()[args.trace]
    # A terminated run still stops its server: SystemExit runs the finally
    # blocks and atexit hooks.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    common.pin_environment()
    common.CACHE.mkdir(exist_ok=True)

    if args.trace:
        if args.workload == "serve-mixed":
            run = _serve_traced(args.seed, args.seconds)
        else:
            run = _fit_traced(args.workload, args.seed)
        rss_method = "n/a"
    else:
        if args.workload == "serve-mixed":
            import serving

            run = serving.serve_mixed(args.seed, args.seconds)
        else:
            import fits

            runner = fits.fit_tall if args.workload == "fit-tall" else fits.offline_dense
            run = runner(args.seed, args.seconds)
        rss_method = run["rss_method"]

    measured = run["metrics"]
    missing = sorted(set(declared) - set(measured))
    if missing and not args.trace:
        _fail(f"end-to-end metrics not measured: {missing}")
    for name in missing:
        # A layer the workload does not exercise reads zero.
        measured[name] = 0
    info = common.environment_info(rss_method)
    info.update({"workload": args.workload, "seed": args.seed, "samples": run.get("samples")})
    print(json.dumps({"environment": info}))
    metrics = {
        name: {"value": float(measured[name]), "unit": unit}
        for name, unit in declared.items()
    }
    failed = int(run["failed"])
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": int(run["attempted"]),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
