"""Metric definitions and their computation from a run's record and trace.

End-to-end metrics come from untraced runs.  Per-layer metrics come from
a traced run and are given per rep (one train call, or one eval round),
except the set-up layers, which are given per set-up.  Names and units
here must match BENCHMARK.json; the self-test checks that they do.
"""

from __future__ import annotations

import statistics

from tracer import PRIMITIVES, REP, SETUP, layer_table

END_TO_END = {
    "items_per_s": "1/s",   # train samples/s, or eval case-iterations/s
    "call_s_p50": "s",      # median of one train_step or one generator batch
    "setup_s": "s",         # import + median set-up + warm-up call
    "peak_rss_mb": "MB",
}

# counters that must repeat exactly between two traced runs with one seed
EXACT_COUNTERS = ("autodiff.non_f32_outputs", "autodiff.retained_graph_mb",
                  "autodiff.graph_nodes", "model.phi_apply.calls", "training.windows",
                  "inference.case_iters")


def _per_layer_units() -> dict:
    units = {}
    for op in PRIMITIVES:
        units[f"autodiff.{op}.fwd_s"] = "s"
        units[f"autodiff.{op}.vjp_s"] = "s"
        units[f"autodiff.{op}.calls"] = "count"
    units.update({
        "autodiff.backward.self_s": "s",
        "autodiff.backward.calls": "count",
        "autodiff.graph_nodes": "count",
        "autodiff.retained_graph_mb": "MB",
        "autodiff.non_f32_outputs": "count",
        "model.embed.s": "s",
        "model.run_cycles.warm_s": "s",
        "model.run_cycles.grad_s": "s",
        "model.run_cycles.self_s": "s",
        "model.decode_state.s": "s",
        "model.phi_apply.calls": "count",
        "model.checkpoint.s": "s",
        "training.collate.s": "s",
        "training.corrupt_batch.s": "s",
        "training.combined_loss.s": "s",
        "training.backward.s": "s",
        "training.adamw.s": "s",
        "training.train_step.self_s": "s",
        "training.windows": "count",
        "training.applied_update_ratio": "ratio",
        "inference.remask_batch.s": "s",
        "inference.remask_batch.self_s": "s",
        "inference.halting_batch.s": "s",
        "inference.halting_batch.self_s": "s",
        "inference.pass_at_k.s": "s",
        "inference.case_iters": "count",
        "inference.halted_early_ratio": "ratio",
        "corruption.corrupt_target.calls": "count",
        "seeding.rng_for.calls": "count",
        "seeding.rng_for.s": "s",
        "tasks.generate_synthetic.s": "s",
        "tasks.build_dataset.s": "s",
        "trace.uncovered_s": "s",
        "trace.items_per_s": "1/s",
    })
    return units


PER_LAYER = _per_layer_units()


def end_to_end(record, setup_s: float, import_s: float, peak_rss_mb: float) -> dict:
    return {
        "items_per_s": record.items / sum(record.rep_s),
        "call_s_p50": statistics.median(c["s"] for c in record.calls),
        "setup_s": import_s + setup_s + record.warm_up_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, record) -> dict:
    spans = tracer.spans
    reps, n_reps = layer_table(spans, REP)
    setups, n_setups = layer_table(spans, SETUP)
    counters: dict[str, float] = {}
    for root, c in tracer.counters.items():
        if spans[root][0] == REP:
            for k, v in c.items():
                counters[k] = counters.get(k, 0.0) + v

    def rep(name, field="s"):
        return reps.get(name, {}).get(field, 0) / n_reps

    def setup(name):
        return setups.get(name, {}).get("s", 0.0) / max(1, n_setups)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for op in PRIMITIVES:
        out[f"autodiff.{op}.fwd_s"] = rep(f"autodiff.{op}.fwd")
        out[f"autodiff.{op}.vjp_s"] = rep(f"autodiff.{op}.vjp")
        out[f"autodiff.{op}.calls"] = rep(f"autodiff.{op}.fwd", "calls")
    halting = [c for c in record.calls if c["halted_early"] is not None]
    out.update({
        "autodiff.backward.self_s": rep("autodiff.backward", "self_s"),
        "autodiff.backward.calls": rep("autodiff.backward", "calls"),
        "autodiff.graph_nodes": counters.get("autodiff.graph_nodes", 0.0) / n_reps,
        "autodiff.retained_graph_mb": counters.get("autodiff.retained_graph_mb", 0.0) / n_reps,
        "autodiff.non_f32_outputs": counters.get("autodiff.non_f32_outputs", 0.0) / n_reps,
        "model.embed.s": rep("model.embed"),
        "model.run_cycles.warm_s": rep("model.run_cycles.warm"),
        "model.run_cycles.grad_s": rep("model.run_cycles.grad"),
        "model.run_cycles.self_s": (rep("model.run_cycles.warm", "self_s")
                                    + rep("model.run_cycles.grad", "self_s")),
        "model.decode_state.s": rep("model.decode_state"),
        "model.phi_apply.calls": rep("model.phi_apply", "calls"),
        "model.checkpoint.s": setup("model.checkpoint"),
        "training.collate.s": rep("training.collate"),
        "training.corrupt_batch.s": rep("training.corrupt_batch"),
        "training.combined_loss.s": rep("training.combined_loss"),
        "training.backward.s": rep("autodiff.backward"),
        "training.adamw.s": rep("training.adamw"),
        "training.train_step.self_s": rep("training.train_step", "self_s"),
        "training.windows": rep("model.run_window", "calls"),
        "training.applied_update_ratio": ratio(counters.get("training.adamw.applied", 0.0),
                                               counters.get("training.adamw.attempted", 0.0)),
        "inference.remask_batch.s": rep("inference.remask_batch"),
        "inference.remask_batch.self_s": rep("inference.remask_batch", "self_s"),
        "inference.halting_batch.s": rep("inference.halting_batch"),
        "inference.halting_batch.self_s": rep("inference.halting_batch", "self_s"),
        "inference.pass_at_k.s": rep("inference.pass_at_k"),
        "inference.case_iters": sum(c["items"] for c in record.calls
                                    if c["batch"]) / n_reps,
        "inference.halted_early_ratio": ratio(sum(c["halted_early"] for c in halting),
                                              sum(c["batch"] for c in halting)),
        "corruption.corrupt_target.calls": rep("corruption.corrupt_target", "calls"),
        "seeding.rng_for.calls": rep("seeding.rng_for", "calls"),
        "seeding.rng_for.s": rep("seeding.rng_for"),
        "tasks.generate_synthetic.s": setup("tasks.generate_synthetic"),
        "tasks.build_dataset.s": setup("tasks.build_dataset"),
        "trace.uncovered_s": rep(REP, "self_s"),
        "trace.items_per_s": record.items / sum(record.rep_s),
    })
    return out


def accounting(tracer) -> tuple[float, float]:
    """(wall seconds of all reps, sum of self seconds of every span under
    them).  The two agree up to rounding: self time partitions wall time."""
    reps, _ = layer_table(tracer.spans, REP)
    return reps[REP]["s"], sum(row["self_s"] for row in reps.values())


def top_layers(tracer, k: int = 12) -> list[tuple[str, float, float]]:
    """The span names with the most self time per rep: (name, self_s, calls)."""
    reps, n = layer_table(tracer.spans, REP)
    rows = sorted(reps.items(), key=lambda kv: -kv[1]["self_s"])[:k]
    return [(name, row["self_s"] / n, row["calls"] / n) for name, row in rows]
