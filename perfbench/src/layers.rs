//! Per-layer metrics of the traced run.
//!
//! Host-clock figures come from the benchmark's own spans around each
//! layer call (medians over the run's traced passes); virtual-clock
//! figures come from the stack's recorder (`time_by_name`), its
//! per-cause byte ledger and the SMART counters. Every invocation
//! reports every metric of [`PER_LAYER`]; a layer a workload does not
//! load reads 0.

use std::collections::BTreeMap;

use ptsbench_core::frontend::FrontendRun;
use ptsbench_core::runner::{RunConfig, RunResult};
use ptsbench_core::ReqClass;
use ptsbench_ssd::{Cause, CauseStats, Ns};

use crate::closed::{MirrorRun, ReferenceRun};
use crate::report::{mean, median, quantile, ratio, Metrics, MIB};
use crate::serve::ServeRun;
use crate::spans::HostSpans;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ssd.build_stack_s", "s"),
    ("ssd.host_write_mib", "MiB"),
    ("ssd.host_read_mib", "MiB"),
    ("ssd.nand_write_mib", "MiB"),
    ("ssd.gc_pages_relocated", "count"),
    ("ssd.blocks_erased", "count"),
    ("ssd.dev_write_s", "s"),
    ("ssd.dev_read_s", "s"),
    ("ssd.wall_ns_per_page", "ns"),
    ("vfs.write_calls", "count"),
    ("vfs.read_calls", "count"),
    ("vfs.write_s", "s"),
    ("vfs.read_s", "s"),
    ("vfs.peak_used_mib", "MiB"),
    ("lsm.put_wall_us", "us"),
    ("lsm.put_wall_p99_us", "us"),
    ("lsm.get_wall_us", "us"),
    ("lsm.bulk_load_s", "s"),
    ("lsm.flushes", "count"),
    ("lsm.compactions", "count"),
    ("lsm.compaction_s", "s"),
    ("lsm.flush_s", "s"),
    ("lsm.wal_s", "s"),
    ("cause.compaction_write_mib", "MiB"),
    ("lsm.bloom_negative_ratio", "ratio"),
    ("btree.bulk_load_us_per_key", "us"),
    ("btree.put_wall_us", "us"),
    ("btree.get_wall_us", "us"),
    ("btree.splits", "count"),
    ("btree.checkpoints", "count"),
    ("btree.checkpoint_s", "s"),
    ("cause.checkpoint_write_mib", "MiB"),
    ("hashlog.segment_gc_write_mib", "MiB"),
    ("hashlog.segment_gc_read_mib", "MiB"),
    ("hashlog.seals", "count"),
    ("hashlog.seal_s", "s"),
    ("hashlog.gc_passes", "count"),
    ("hashlog.gc_s", "s"),
    ("cache.hit_rate", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.admit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.bytes_saved_mib", "MiB"),
    ("maint.jobs", "count"),
    ("maint.slices", "count"),
    ("maint.stall_s", "s"),
    ("maint.bg_write_mib", "MiB"),
    ("maint.write_amp", "ratio"),
    ("workload.next_op_ns", "ns"),
    ("workload.arrival_ns", "ns"),
    ("harness.frontend_new_s", "s"),
    ("harness.submit_us", "us"),
    ("harness.settle_us", "us"),
    ("harness.submit_us_growth", "ratio"),
    ("harness.pending_max", "count"),
    ("harness.in_flight_max", "count"),
    ("harness.util_mean", "ratio"),
    ("harness.req_ratio", "ratio"),
    ("harness.queue_delay_p99_ms.interactive", "ms"),
    ("harness.queue_delay_p99_ms.batch", "ms"),
    ("core.finish_ms", "ms"),
    ("metrics.render_ms", "ms"),
    ("model.lat_p50_ms", "ms"),
    ("model.lat_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.vspans_dropped", "count"),
    ("selfwall.bench_s", "s"),
    ("selfwall.workload_s", "s"),
    ("selfwall.ssd_s", "s"),
    ("selfwall.lsm_s", "s"),
    ("selfwall.btree_s", "s"),
    ("selfwall.maint_s", "s"),
    ("selfwall.engine_s", "s"),
    ("selfwall.harness_s", "s"),
    ("selfwall.metrics_s", "s"),
];

/// Values by metric name; [`Values::emit`] reports all of
/// [`PER_LAYER`], 0 where unset.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Sets `name` to the median over passes of `f(spans)`.
    fn host(&mut self, name: &'static str, spans: &[&HostSpans], f: impl Fn(&HostSpans) -> f64) {
        let values: Vec<f64> = spans.iter().map(|s| f(s)).collect();
        self.set(name, median(&values));
    }

    fn emit(self, metrics: &mut Metrics) {
        for &(name, unit) in PER_LAYER {
            metrics.put(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Virtual time (ns) and span count by recorder span name.
type TimeByName = BTreeMap<&'static str, (Ns, u64)>;

fn table(rows: &[(&'static str, Ns, u64)]) -> TimeByName {
    let mut t = TimeByName::new();
    for &(name, ns, count) in rows {
        let e = t.entry(name).or_insert((0, 0));
        e.0 += ns;
        e.1 += count;
    }
    t
}

fn vsecs(t: &TimeByName, names: &[&str]) -> f64 {
    names
        .iter()
        .filter_map(|n| t.get(n))
        .map(|e| e.0)
        .sum::<Ns>() as f64
        / 1e9
}

fn vcount(t: &TimeByName, names: &[&str]) -> f64 {
    names
        .iter()
        .filter_map(|n| t.get(n))
        .map(|e| e.1)
        .sum::<u64>() as f64
}

fn mean_ns(s: &HostSpans, name: &str) -> f64 {
    mean(&s.durations(name))
}

/// The recorder-derived metrics common to both kinds of workload.
fn virtual_layers(v: &mut Values, t: &TimeByName, cause: Option<&CauseStats>) {
    v.set("ssd.dev_write_s", vsecs(t, &["dev.write"]));
    v.set("ssd.dev_read_s", vsecs(t, &["dev.read"]));
    v.set("vfs.write_calls", vcount(t, &["vfs.write", "vfs.append"]));
    v.set("vfs.read_calls", vcount(t, &["vfs.read"]));
    v.set("vfs.write_s", vsecs(t, &["vfs.write", "vfs.append"]));
    v.set("vfs.read_s", vsecs(t, &["vfs.read"]));
    v.set("lsm.compaction_s", vsecs(t, &["lsm.compaction"]));
    v.set("lsm.flush_s", vsecs(t, &["lsm.flush"]));
    v.set("lsm.wal_s", vsecs(t, &["lsm.wal"]));
    v.set("btree.checkpoint_s", vsecs(t, &["btree.checkpoint"]));
    v.set("hashlog.seals", vcount(t, &["hashlog.seal"]));
    v.set("hashlog.seal_s", vsecs(t, &["hashlog.seal"]));
    v.set("hashlog.gc_passes", vcount(t, &["hashlog.gc", "maint.gc"]));
    v.set("hashlog.gc_s", vsecs(t, &["hashlog.gc", "maint.gc"]));
    if let Some(c) = cause {
        let mib = |cause: Cause, read: bool| {
            let k = c.get(cause);
            (if read { k.bytes_read } else { k.bytes_written }) as f64 / MIB
        };
        v.set("cause.compaction_write_mib", mib(Cause::Compaction, false));
        v.set("cause.checkpoint_write_mib", mib(Cause::Checkpoint, false));
        v.set("hashlog.segment_gc_write_mib", mib(Cause::SegmentGc, false));
        v.set("hashlog.segment_gc_read_mib", mib(Cause::SegmentGc, true));
    }
}

/// Modeled latency quantiles, reference scale.
fn model_latency(v: &mut Values, latencies: &[u64], scale: f64) {
    let ms = |q: f64| quantile(latencies, q) as f64 / scale / 1e6;
    v.set("model.lat_p50_ms", ms(0.5));
    v.set("model.lat_p99_ms", ms(0.99));
}

fn self_times(v: &mut Values, spans: &[&HostSpans]) {
    let by_layer: Vec<BTreeMap<&str, u64>> = spans.iter().map(|s| s.self_time_by_layer()).collect();
    for (name, layer) in [
        ("selfwall.bench_s", "bench"),
        ("selfwall.workload_s", "workload"),
        ("selfwall.ssd_s", "ssd"),
        ("selfwall.lsm_s", "lsm"),
        ("selfwall.btree_s", "btree"),
        ("selfwall.maint_s", "maint"),
        ("selfwall.engine_s", "engine"),
        ("selfwall.harness_s", "harness"),
        ("selfwall.metrics_s", "metrics"),
    ] {
        let secs: Vec<f64> = by_layer
            .iter()
            .map(|m| m.get(layer).copied().unwrap_or(0) as f64 / 1e9)
            .collect();
        v.set(name, median(&secs));
    }
}

/// Per-layer metrics of a closed-loop workload from its (untraced
/// reference, traced mirror, spans) passes.
pub fn closed(
    metrics: &mut Metrics,
    cfg: &RunConfig,
    pairs: &[(ReferenceRun, MirrorRun, HostSpans)],
) {
    let mut v = Values::default();
    let spans: Vec<&HostSpans> = pairs.iter().map(|(_, _, s)| s).collect();
    let (_, last, _) = pairs.last().expect("at least one pass");
    let engine = cfg.engine.label();
    let (put, get, load, put_us, get_us) = if engine == "btree" {
        (
            "btree.put",
            "btree.get",
            "btree.bulk_load",
            "btree.put_wall_us",
            "btree.get_wall_us",
        )
    } else {
        (
            "lsm.put",
            "lsm.get",
            "lsm.bulk_load",
            "lsm.put_wall_us",
            "lsm.get_wall_us",
        )
    };

    // ssd
    v.host("ssd.build_stack_s", &spans, |s| {
        s.total("ssd.build_stack") as f64 / 1e9
    });
    let smart = last.smart;
    let page = last.page_size as f64;
    v.set(
        "ssd.host_write_mib",
        smart.host_pages_written as f64 * page / MIB,
    );
    v.set(
        "ssd.host_read_mib",
        smart.host_pages_read as f64 * page / MIB,
    );
    v.set(
        "ssd.nand_write_mib",
        smart.nand_pages_written as f64 * page / MIB,
    );
    v.set("ssd.gc_pages_relocated", smart.gc_pages_relocated as f64);
    v.set("ssd.blocks_erased", smart.blocks_erased as f64);
    let run_s = median(&pairs.iter().map(|(r, _, _)| r.run_s).collect::<Vec<_>>());
    let pages = (smart.nand_pages_written + smart.nand_pages_read) as f64;
    v.set("ssd.wall_ns_per_page", ratio(run_s * 1e9, pages));
    v.set("vfs.peak_used_mib", last.peak_used_bytes as f64 / MIB);
    virtual_layers(&mut v, &table(&last.time_by_name), last.cause.as_ref());

    // engine
    let st = |n: &str| last.structural.get(n).copied().unwrap_or(0) as f64;
    v.host(put_us, &spans, |s| mean_ns(s, put) / 1e3);
    v.host(get_us, &spans, |s| mean_ns(s, get) / 1e3);
    if engine == "lsm" {
        v.host("lsm.put_wall_p99_us", &spans, |s| {
            let d = s.durations(put);
            if d.is_empty() {
                0.0
            } else {
                quantile(&d, 0.99) as f64 / 1e3
            }
        });
        v.host("lsm.bulk_load_s", &spans, |s| s.total(load) as f64 / 1e9);
        v.set("lsm.flushes", st("flushes"));
        v.set("lsm.compactions", st("compactions"));
        v.set(
            "lsm.bloom_negative_ratio",
            ratio(st("bloom_negatives"), st("bloom_probes")),
        );
    } else {
        let keys = last.num_keys as f64;
        v.host("btree.bulk_load_us_per_key", &spans, |s| {
            s.total(load) as f64 / 1e3 / keys
        });
        v.set("btree.splits", st("splits"));
        v.set("btree.checkpoints", st("checkpoints"));
    }

    // cache
    if let Some(c) = last.cache {
        v.set(
            "cache.hit_rate",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
        );
        v.set("cache.hits", c.hits as f64);
        v.set("cache.misses", c.misses as f64);
        v.set(
            "cache.admit_ratio",
            ratio(c.admissions as f64, (c.admissions + c.rejections) as f64),
        );
        v.set("cache.evictions", c.evictions as f64);
        v.set("cache.bytes_saved_mib", c.bytes_saved as f64 / MIB);
    }

    // workload, core, metrics, trace
    v.host("workload.next_op_ns", &spans, |s| {
        mean_ns(s, "workload.next_op")
    });
    v.set(
        "core.finish_ms",
        median(
            &pairs
                .iter()
                .map(|(r, _, _)| r.finish_s * 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    v.set(
        "metrics.render_ms",
        median(
            &pairs
                .iter()
                .map(|(r, _, _)| r.render_s * 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    let untraced = median(
        &pairs
            .iter()
            .map(|(r, _, _)| r.setup_s + r.run_s)
            .collect::<Vec<_>>(),
    );
    let traced = median(
        &pairs
            .iter()
            .map(|(_, m, s)| m.setup_s + m.run_s - s.total("bench.verify") as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    v.set("trace.overhead_frac", traced / untraced - 1.0);
    v.set("trace.vspans_dropped", last.spans_dropped as f64);
    model_latency(&mut v, &last.latencies, cfg.scale());
    self_times(&mut v, &spans);
    v.emit(metrics);
}

/// Recorder rows of every shard of a traced fleet, merged by name.
pub fn merged_time_by_name(shards: &[RunResult]) -> Vec<(&'static str, Ns, u64)> {
    let mut t = TimeByName::new();
    for r in shards {
        if let Some(rec) = &r.recorder {
            for (name, (ns, count)) in table(&rec.lock().time_by_name()) {
                let e = t.entry(name).or_insert((0, 0));
                e.0 += ns;
                e.1 += count;
            }
        }
    }
    t.into_iter().map(|(n, (ns, c))| (n, ns, c)).collect()
}

/// Per-layer metrics of `serve-mt` from its (untraced, traced, spans)
/// passes.
pub fn serve(metrics: &mut Metrics, cfg: &FrontendRun, pairs: &[(ServeRun, ServeRun, HostSpans)]) {
    let mut v = Values::default();
    let spans: Vec<&HostSpans> = pairs.iter().map(|(_, _, s)| s).collect();
    let (_, last, _) = pairs.last().expect("at least one pass");
    let shard_cfg = cfg.shard_config(0);
    let scale = shard_cfg.scale();
    let page = shard_cfg
        .profile
        .scaled_to(shard_cfg.device_bytes)
        .geometry
        .page_size as f64;
    let m = &last.modeled;

    // ssd: the fleet's devices sit inside the front-end, so NAND
    // traffic is recovered from each shard's WA-D and erases from the
    // per-cause ledger.
    let mut cause = CauseStats::new();
    let mut dropped = 0u64;
    for r in &last.shard_results {
        if let Some(c) = &r.cause {
            cause.merge(c);
        }
        if let Some(rec) = &r.recorder {
            dropped += rec.lock().dropped();
        }
    }
    v.set("ssd.host_write_mib", m.host_bytes_written as f64 / MIB);
    v.set("ssd.host_read_mib", m.host_bytes_read as f64 / MIB);
    v.set("ssd.nand_write_mib", m.nand_bytes_written / MIB);
    let relocated = ((m.nand_bytes_written - m.host_bytes_written as f64) / page).round();
    v.set("ssd.gc_pages_relocated", relocated);
    v.set("ssd.blocks_erased", cause.total_erases() as f64);
    let run_s = median(&pairs.iter().map(|(u, _, _)| u.run_s).collect::<Vec<_>>());
    let pages = m.nand_bytes_written / page + m.host_bytes_read as f64 / page;
    v.set("ssd.wall_ns_per_page", ratio(run_s * 1e9, pages));
    let used: u64 = last.shard_results.iter().map(|r| r.disk_used_bytes).sum();
    v.set("vfs.peak_used_mib", used as f64 / MIB);
    virtual_layers(
        &mut v,
        &table(&merged_time_by_name(&last.shard_results)),
        Some(&cause),
    );

    // maint
    if let Some(ms) = last.report.maint_totals() {
        v.set("maint.jobs", ms.jobs as f64);
        v.set("maint.slices", ms.slices as f64);
        v.set("maint.stall_s", ms.stall_ns as f64 / 1e9);
        v.set("maint.bg_write_mib", ms.bytes_written as f64 / MIB);
        v.set("maint.write_amp", ms.write_amp());
    }

    // workload, harness
    v.host("workload.next_op_ns", &spans, |s| {
        mean_ns(s, "workload.next_op")
    });
    v.host("workload.arrival_ns", &spans, |s| {
        mean_ns(s, "workload.arrival")
    });
    v.host("harness.frontend_new_s", &spans, |s| {
        s.total("harness.frontend_new") as f64 / 1e9
    });
    v.host("harness.submit_us", &spans, |s| {
        mean_ns(s, "harness.submit") / 1e3
    });
    v.host("harness.settle_us", &spans, |s| {
        mean_ns(s, "harness.settle_to") / 1e3
    });
    v.host("harness.submit_us_growth", &spans, |s| {
        let d = s.durations("harness.submit");
        let q = d.len() / 4;
        ratio(mean(&d[d.len() - q..]), mean(&d[..q]))
    });
    v.set("harness.pending_max", last.pending_max as f64);
    v.set("harness.in_flight_max", last.in_flight_max as f64);
    if let Some(load) = last.report.load_imbalance() {
        v.set("harness.util_mean", load.mean_utilization);
        v.set("harness.req_ratio", load.request_ratio());
    }
    if let Some(mt) = last.report.mt_totals() {
        let p99 = |c: ReqClass| mt.class(c).queue_delay.quantile(0.99) as f64 / scale / 1e6;
        v.set(
            "harness.queue_delay_p99_ms.interactive",
            p99(ReqClass::Interactive),
        );
        v.set("harness.queue_delay_p99_ms.batch", p99(ReqClass::Batch));
    }

    // core, metrics, trace
    v.set(
        "core.finish_ms",
        median(
            &pairs
                .iter()
                .map(|(u, _, _)| u.finish_s * 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    v.host("metrics.render_ms", &spans, |s| {
        s.total("metrics.render") as f64 / 1e6
    });
    let untraced = median(
        &pairs
            .iter()
            .map(|(u, _, _)| u.setup_s + u.run_s)
            .collect::<Vec<_>>(),
    );
    let traced = median(
        &pairs
            .iter()
            .map(|(_, t, _)| t.setup_s + t.run_s)
            .collect::<Vec<_>>(),
    );
    v.set("trace.overhead_frac", traced / untraced - 1.0);
    v.set("trace.vspans_dropped", dropped as f64);
    model_latency(&mut v, &m.interactive_sojourn, scale);
    self_times(&mut v, &spans);
    v.emit(metrics);
}

/// Writes the traced run's host spans and the virtual recorder's
/// `time_by_name` table under `perfbench/out/`.
pub fn write_trace(workload: &str, spans: &HostSpans, time_by_name: &[(&'static str, Ns, u64)]) {
    let dir = std::path::Path::new("perfbench").join("out");
    let mut vtime = String::from("name\tvirtual_ns\tspans\n");
    for (name, ns, count) in time_by_name {
        vtime.push_str(&format!("{name}\t{ns}\t{count}\n"));
    }
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| {
            std::fs::write(
                dir.join(format!("{workload}.spans.jsonl")),
                spans.to_json_lines(),
            )
        })
        .and_then(|_| std::fs::write(dir.join(format!("{workload}.vtime.tsv")), vtime));
    if let Err(e) = written {
        eprintln!("perfbench: could not write the trace files: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics reported here.
    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                per_layer.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }
}
