//! Closed-loop workloads (`lsm-update`, `btree-mixed`,
//! `lsm-read-cached`): one client, one stack, single-threaded.
//!
//! Two ways through the same experiment:
//!
//! * [`reference`] runs it through the repo's own experiment runner
//!   (`Experiment::prepare` / `run_until` / `finish`); its host times
//!   are the end-to-end figures.
//! * [`mirror`] re-walks `Experiment`'s steps through the layers'
//!   public functions (`build_stack`, `EngineKind::open`, `bulk_load`,
//!   `OpGenerator::next_op`, `PtsEngine::{put,get,run_maintenance_slice}`)
//!   with a host span around each call, checks every value read, and
//!   reads every key back at the end. Its modeled results must equal
//!   the reference's exactly, which pins both the mirror's fidelity and
//!   tracing's zero virtual cost.

use std::collections::BTreeMap;
use std::time::Instant;

use ptsbench_core::engine::PtsError;
use ptsbench_core::measure::{build_stack, bulk_load, Experiment};
use ptsbench_core::registry::EngineTuning;
use ptsbench_core::runner::{RunConfig, RunResult};
use ptsbench_metrics::histogram::LatencyHistogram;
use ptsbench_metrics::runreport::{RunReport, ShardReport};
use ptsbench_metrics::timeseries::TimeSeries;
use ptsbench_metrics::CacheStats;
use ptsbench_ssd::{Cause, CauseStats, Ns, SmartCounters};
use ptsbench_vfs::TraceHandle;
use ptsbench_workload::{encode_key, Loader, OpGenerator, OpKind};

use crate::spans::HostSpans;

/// Everything the model computes for one run: deterministic per seed,
/// so any difference between two runs of one configuration is a bug.
#[derive(Debug, Clone, PartialEq)]
pub struct Modeled {
    pub ops: u64,
    pub window_kops: Vec<f64>,
    pub steady_kops: f64,
    /// The latency histogram's every bucket, and its exact mean.
    pub latency_cdf: Vec<(u64, f64)>,
    pub lat_mean: f64,
    pub app_bytes: u64,
    pub host_bytes_written: u64,
    pub host_bytes_read: u64,
    pub wa_a: f64,
    pub wa_d: f64,
    pub space_amp: f64,
}

impl Modeled {
    pub fn from_result(r: &RunResult) -> Self {
        Self {
            ops: r.ops_executed,
            window_kops: r.samples.iter().map(|s| s.kv_kops).collect(),
            steady_kops: r.steady.steady_kops,
            latency_cdf: r.latency.cdf_points(),
            lat_mean: r.latency.mean(),
            app_bytes: r.app_bytes_written,
            host_bytes_written: r.host_bytes_written,
            host_bytes_read: r.host_bytes_read,
            wa_a: r.steady.wa_a,
            wa_d: r.steady.wa_d,
            space_amp: r.space_amplification(),
        }
    }
}

/// One pass through the repo's own experiment runner.
pub struct ReferenceRun {
    pub modeled: Modeled,
    /// `Experiment::prepare`, seconds.
    pub setup_s: f64,
    /// `run_until` plus `finish`, seconds.
    pub run_s: f64,
    /// `Experiment::finish` alone, seconds.
    pub finish_s: f64,
    /// `RunReport::render` of the one-shard report, seconds.
    pub render_s: f64,
}

pub fn reference(cfg: &RunConfig) -> Result<ReferenceRun, PtsError> {
    let t = Instant::now();
    let mut exp = Experiment::prepare(cfg)?;
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    exp.run_until(cfg.duration)?;
    let tf = Instant::now();
    let result = exp.finish();
    let finish_s = tf.elapsed().as_secs_f64();
    let run_s = t.elapsed().as_secs_f64();
    let report = RunReport::merge(
        cfg.label(),
        1,
        vec![shard_report(cfg.queue_depth, 0, &result)],
    );
    let t = Instant::now();
    std::hint::black_box(report.render());
    let render_s = t.elapsed().as_secs_f64();
    if result.out_of_space {
        return Err(PtsError::OutOfSpace);
    }
    Ok(ReferenceRun {
        modeled: Modeled::from_result(&result),
        setup_s,
        run_s,
        finish_s,
        render_s,
    })
}

/// A shard's report as the harness builds it (the harness's own helper
/// is crate-private): identical fields, so renders compare byte for
/// byte.
pub fn shard_report(queue_depth: usize, index: usize, r: &RunResult) -> ShardReport {
    ShardReport {
        name: format!("shard{index}"),
        ops: r.ops_executed,
        out_of_space: r.out_of_space,
        latency: r.latency.clone(),
        app_bytes: r.app_bytes_written,
        host_bytes: r.host_bytes_written,
        io_depth: (queue_depth > 1).then(|| ptsbench_metrics::runreport::QueueDepthSummary {
            submitted: r.io_depth.submitted,
            max_in_flight: r.io_depth.max_in_flight,
            mean_in_flight: r.io_depth.mean_in_flight(),
        }),
        cache: r.cache,
        cause: r.cause,
        maint: r.maint,
        queue_delay: None,
        load: None,
        slo: None,
        mt: None,
        series: vec![r.throughput_series(), r.device_write_series()],
    }
}

/// Host span names of one engine's calls.
struct EngineSpans {
    open: &'static str,
    bulk_load: &'static str,
    put: &'static str,
    get: &'static str,
}

fn engine_spans(label: &str) -> EngineSpans {
    if label == "btree" {
        EngineSpans {
            open: "btree.open",
            bulk_load: "btree.bulk_load",
            put: "btree.put",
            get: "btree.get",
        }
    } else {
        EngineSpans {
            open: "lsm.open",
            bulk_load: "lsm.bulk_load",
            put: "lsm.put",
            get: "lsm.get",
        }
    }
}

/// A cheap 64-bit digest of a value (word-wise multiply-rotate), used
/// to check reads against what was written without keeping the bytes.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = bytes.len() as u64 ^ 0x243F_6A88_85A3_08D3;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
    h
}

/// What the mirrored run observed beyond the modeled results.
pub struct MirrorRun {
    pub modeled: Modeled,
    /// Exact per-op service latencies (virtual ns, scaled device).
    pub latencies: Vec<u64>,
    pub smart: SmartCounters,
    pub cause: Option<CauseStats>,
    /// The virtual recorder's `time_by_name` table (name, ns, count).
    pub time_by_name: Vec<(&'static str, Ns, u64)>,
    pub spans_dropped: u64,
    /// Engine structural counters, measured phase only.
    pub structural: BTreeMap<&'static str, u64>,
    /// Cache traffic of the measured phase.
    pub cache: Option<CacheStats>,
    pub peak_used_bytes: u64,
    pub page_size: u64,
    pub num_keys: u64,
    /// Build + open + bulk load, seconds.
    pub setup_s: f64,
    /// Measured phase plus the finish steps, seconds.
    pub run_s: f64,
    /// Checked values that differed from the last one written.
    pub mismatches: u64,
}

/// Runs `cfg` through the layers' public functions (see the module
/// docs), recording host spans into `spans` when it is on.
pub fn mirror(cfg: &RunConfig, spans: &mut HostSpans) -> Result<MirrorRun, PtsError> {
    let names = engine_spans(cfg.engine.label());
    let workload = cfg.workload();
    let scale = cfg.scale();
    let dataset_bytes = workload.dataset_bytes();

    // What every key must read back as: its loaded value until the op
    // stream overwrites it.
    let mut expected: Vec<u64> = Vec::with_capacity(workload.num_keys as usize);
    let mut loader = Loader::new(workload.clone());
    while let Some((_, value)) = loader.next_pair() {
        expected.push(digest(value));
    }

    let setup = Instant::now();
    let stack = spans.time("ssd.build_stack", || build_stack(cfg))?;
    let trace = TraceHandle::from_vfs(&stack.vfs, cfg.trace);
    let tuning = EngineTuning::for_device(cfg.device_bytes)
        .with_queue_depth(cfg.queue_depth)
        .with_cache_bytes(cfg.cache_bytes)
        .with_compression_level(cfg.compression_level)
        .with_trace(cfg.trace)
        .with_maint(cfg.maint);
    let mut system = spans.time(names.open, || cfg.engine.open(stack.vfs.clone(), &tuning))?;
    {
        let _load_cause = trace.cause(Cause::BulkLoad);
        spans.time(names.bulk_load, || bulk_load(system.as_mut(), &workload))?;
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let run = Instant::now();
    stack.shared.lock().reset_observability();
    stack.vfs.reset_peak_usage();
    let t0 = stack.clock.now();
    let app_bytes_t0 = system.app_bytes_written();
    let stats_t0 = system.stats();
    let cpu_cost_sim = ((cfg.cpu_cost_ns.unwrap_or(cfg.engine.default_cpu_cost_ns()) as f64)
        * scale)
        .round() as Ns;
    let mut gen = OpGenerator::new(workload.clone());
    let initial_used = stack.vfs.stats().used_bytes;
    let mut latency = LatencyHistogram::new();
    let mut latencies = Vec::new();
    let mut starts = Vec::new();
    let mut mismatches = 0u64;
    let deadline = t0 + cfg.duration;

    loop {
        let now = stack.clock.now();
        if now >= deadline {
            break;
        }
        let op_span = spans.begin("bench.op");
        let next = spans.begin("workload.next_op");
        let op = gen.next_op();
        spans.end(next);
        let (span_name, cause) = match op.kind {
            OpKind::Update => ("op.put", Cause::Put),
            OpKind::Read => ("op.get", Cause::Get),
        };
        let key_index = op.key_index as usize;
        // As in `Experiment::run_until`, the op's cause scope also
        // covers the maintenance slices that follow it.
        let op_cause = trace.cause(cause);
        let vspan = trace.begin(span_name, cause);
        let read = match op.kind {
            OpKind::Update => {
                let verify = spans.begin("bench.verify");
                expected[key_index] = digest(op.value);
                spans.end(verify);
                spans.time(names.put, || system.put(op.key, op.value))?;
                None
            }
            OpKind::Read => Some(spans.time(names.get, || system.get(op.key))?),
        };
        stack.clock.advance(cpu_cost_sim);
        trace.end(vspan);
        let done = stack.clock.now();
        latency.record(done - now);
        latencies.push(done - now);
        starts.push(now);
        if let Some(value) = read {
            let verify = spans.begin("bench.verify");
            if value.as_deref().map(digest) != Some(expected[key_index]) {
                mismatches += 1;
            }
            spans.end(verify);
        }
        while spans.time("maint.slice", || system.run_maintenance_slice())? {}
        drop(op_cause);
        spans.end(op_span);
    }
    spans.time("maint.drain", || system.drain_maintenance())?;
    spans.time("engine.drain_io", || system.drain_io());
    let run_s = run.elapsed().as_secs_f64();

    let page_size = stack.page_size;
    let peak_used_bytes = initial_used.max(stack.vfs.stats().peak_used_pages * page_size);
    let app_bytes = system.app_bytes_written() - app_bytes_t0;
    let stats = system.stats();
    let (smart, cause, time_by_name, spans_dropped) = {
        let dev = stack.shared.lock();
        let (tbn, dropped) = match dev.tracer().shared() {
            Some(rec) => {
                let rec = rec.lock();
                (rec.time_by_name(), rec.dropped())
            }
            None => (Vec::new(), 0),
        };
        (dev.smart(), dev.cause_stats(), tbn, dropped)
    };
    let structural = stats
        .structural
        .iter()
        .map(|&(name, v)| {
            let before = stats_t0
                .structural
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, b)| b);
            (name, v.saturating_sub(before))
        })
        .collect();

    // `Experiment` samples a window when the first op at or past its
    // end begins (or at finish), so a window holds the ops that started
    // before its end.
    let window_secs = cfg.sample_window as f64 / 1e9;
    let mut series = TimeSeries::new("kv_kops");
    let mut window_kops = Vec::new();
    let mut prev_ops = 0;
    for k in 1..=cfg.duration / cfg.sample_window {
        let ops = starts.partition_point(|&t| t < t0 + k * cfg.sample_window);
        let kops = (ops - prev_ops) as f64 / window_secs * scale / 1_000.0;
        prev_ops = ops;
        window_kops.push(kops);
        series.push(k * cfg.sample_window, kops);
    }
    let host_bytes_written = smart.host_pages_written * page_size;
    let modeled = Modeled {
        ops: latencies.len() as u64,
        window_kops,
        steady_kops: series.tail_mean((series.len() / 2).max(3)).unwrap_or(0.0),
        latency_cdf: latency.cdf_points(),
        lat_mean: latency.mean(),
        app_bytes,
        host_bytes_written,
        host_bytes_read: smart.host_pages_read * page_size,
        wa_a: if app_bytes == 0 {
            1.0
        } else {
            host_bytes_written as f64 / app_bytes as f64
        },
        wa_d: smart.wa_d(),
        space_amp: if dataset_bytes == 0 {
            1.0
        } else {
            peak_used_bytes as f64 / dataset_bytes as f64
        },
    };

    // Read every key back: each must hold the last value written.
    let mut key = Vec::with_capacity(workload.key_size);
    for (local, want) in expected.iter().enumerate() {
        encode_key(
            workload.key_base + local as u64,
            workload.key_size,
            &mut key,
        );
        if system.get(&key)?.as_deref().map(digest) != Some(*want) {
            mismatches += 1;
        }
    }

    Ok(MirrorRun {
        modeled,
        latencies,
        smart,
        cause,
        time_by_name,
        spans_dropped,
        structural,
        cache: stats
            .cache
            .map(|c| cache_delta(c, stats_t0.cache.unwrap_or_default())),
        page_size,
        peak_used_bytes,
        num_keys: workload.num_keys,
        setup_s,
        run_s,
        mismatches,
    })
}

fn cache_delta(end: CacheStats, start: CacheStats) -> CacheStats {
    CacheStats {
        hits: end.hits - start.hits,
        misses: end.misses - start.misses,
        admissions: end.admissions - start.admissions,
        rejections: end.rejections - start.rejections,
        evictions: end.evictions - start.evictions,
        bytes_saved: end.bytes_saved - start.bytes_saved,
    }
}
