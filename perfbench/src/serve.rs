//! The open-loop serving workload (`serve-mt`): two tenants' Poisson
//! arrivals through the front-end dispatcher onto a hash-sharded fleet.
//!
//! [`mirror`] re-walks `run_frontend`'s event loop (for open-loop
//! clients) through the front-end's public functions
//! (`Frontend::{new,submit,settle_to,settle_one,take,finish}`) with a
//! host span around each call, and builds the merged report the way
//! `run_frontend` does, so its render must equal `run_frontend`'s byte
//! for byte. It also collects every request's completion, which
//! `run_frontend` discards, to check the exactly-once ledger and to
//! measure exact sojourn quantiles.

use std::time::Instant;

use ptsbench_core::engine::PtsError;
use ptsbench_core::frontend::FrontendRun;
use ptsbench_core::runner::RunResult;
use ptsbench_core::ReqClass;
use ptsbench_harness::{Frontend, FrontendShardResult, ReqOutcome, ReqToken, Request};
use ptsbench_metrics::runreport::RunReport;
use ptsbench_workload::{ArrivalClock, OpGenerator};

use crate::closed::shard_report;
use crate::spans::HostSpans;

/// Everything the model computes for one run (see `closed::Modeled`).
#[derive(Debug, Clone, PartialEq)]
pub struct Modeled {
    pub offered: u64,
    pub ops: u64,
    pub steady_kops: f64,
    pub interactive_sojourn: Vec<u64>,
    /// The merged latency histogram's every bucket, and its exact mean.
    pub latency_cdf: Vec<(u64, f64)>,
    pub lat_mean: f64,
    pub app_bytes: u64,
    pub host_bytes_written: u64,
    pub host_bytes_read: u64,
    pub nand_bytes_written: f64,
    pub wa_a: f64,
    pub wa_d: f64,
    pub space_amp: f64,
}

/// How many requests ended each way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub offered: u64,
    pub served: u64,
    pub rejected: u64,
    pub shed: u64,
    pub throttled: u64,
    pub dropped: u64,
    /// Submitted requests whose completion never surfaced.
    pub missing: u64,
}

impl Ledger {
    pub fn closes(&self) -> bool {
        self.missing == 0
            && self.served + self.rejected + self.shed + self.throttled + self.dropped
                == self.offered
    }

    pub fn turned_away(&self) -> u64 {
        self.rejected + self.shed + self.throttled + self.dropped
    }
}

pub struct ServeRun {
    pub modeled: Modeled,
    pub ledger: Ledger,
    pub report: RunReport,
    pub shard_results: Vec<RunResult>,
    /// The rendered report (rendered in every run, timed in traced ones).
    pub render: String,
    /// `Frontend::new`, seconds.
    pub setup_s: f64,
    /// Event loop plus `Frontend::finish`, seconds.
    pub run_s: f64,
    /// `Frontend::finish` alone, seconds.
    pub finish_s: f64,
    /// Largest number of uncollected completions seen after a submit.
    pub pending_max: usize,
    /// Largest per-shard in-flight count, sampled every
    /// [`IN_FLIGHT_EVERY`] submits.
    pub in_flight_max: usize,
}

/// Sampling period (in submits) of the in-flight probe, which scans
/// every shard's slot list.
pub const IN_FLIGHT_EVERY: u64 = 256;

struct Client {
    generator: OpGenerator,
    arrivals: ArrivalClock,
    class: ReqClass,
    tenant: u32,
}

pub fn mirror(cfg: &FrontendRun, spans: &mut HostSpans) -> Result<ServeRun, PtsError> {
    // Open-loop clients never wait on a completion, which is what lets
    // this loop drop `run_frontend`'s closed-loop collection step.
    assert!(
        (0..cfg.clients).all(|c| !cfg.client_arrival(c).is_closed()),
        "the serving mirror drives open-loop clients only"
    );
    let t = Instant::now();
    let mut frontend = spans.time("harness.frontend_new", || Frontend::new(cfg))?;
    let setup_s = t.elapsed().as_secs_f64();

    let run = Instant::now();
    let mut clients: Vec<Client> = (0..cfg.clients)
        .map(|c| Client {
            generator: OpGenerator::new(cfg.client_workload(c)),
            arrivals: ArrivalClock::new(cfg.client_arrival(c), cfg.client_arrival_seed(c)),
            class: cfg.client_class(c),
            tenant: cfg.tenant_of_client(c),
        })
        .collect();
    let mut submitted: Vec<(ReqToken, ReqClass)> = Vec::new();
    let mut pending_max = 0usize;
    let mut in_flight_max = 0usize;
    let probe = spans.is_on();

    loop {
        let iter = spans.begin("bench.iter");
        let next = spans.time("workload.arrival", || {
            clients
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.arrivals.next_submit().map(|t| (i, t)))
                .min_by_key(|&(i, t)| (t, i))
        });
        let Some((client_idx, at)) = next.filter(|&(_, at)| at < cfg.base.duration) else {
            // No arrival left in the window: let the dispatcher decide
            // its next waiting request, until none is left.
            let progressed = spans.time("harness.settle_one", || frontend.settle_one())?;
            spans.end(iter);
            if progressed {
                continue;
            }
            break;
        };
        frontend.advance_to(at);
        // Settle strictly before the arrival instant, as `run_frontend`
        // does, so a decision at `at` still sees this submission.
        spans.time("harness.settle_to", || {
            frontend.settle_to(at.saturating_sub(1))
        })?;
        let client = &mut clients[client_idx];
        let open = spans.begin("workload.next_op");
        let op = client.generator.next_op();
        let request = Request {
            kind: op.kind,
            key_index: op.key_index,
            value: op.value.to_vec(),
            class: client.class,
            tenant: client.tenant,
        };
        spans.end(open);
        client.arrivals.note_submitted();
        let class = client.class;
        let token = spans.time("harness.submit", || frontend.submit(request))?;
        submitted.push((token, class));
        if probe {
            pending_max = pending_max.max(frontend.pending());
            if (submitted.len() as u64).is_multiple_of(IN_FLIGHT_EVERY) {
                for shard in 0..cfg.shards {
                    in_flight_max = in_flight_max.max(frontend.in_flight(shard));
                }
            }
        }
        spans.end(iter);
    }
    spans.time("harness.settle", || frontend.settle())?;

    // Collect every completion: the exactly-once ledger and the
    // interactive tenant's sojourn times. `run_frontend` does not do
    // this, so its time stays out of `run_s`.
    let collect = Instant::now();
    let mut ledger = Ledger {
        offered: submitted.len() as u64,
        ..Ledger::default()
    };
    let mut interactive_sojourn = Vec::new();
    for &(token, class) in &submitted {
        let Some(c) = spans.time("harness.take", || frontend.take(token)) else {
            ledger.missing += 1;
            continue;
        };
        match c.outcome {
            ReqOutcome::Served => {
                ledger.served += 1;
                if class == ReqClass::Interactive {
                    interactive_sojourn.push(c.sojourn());
                }
            }
            ReqOutcome::Rejected => ledger.rejected += 1,
            ReqOutcome::Shed => ledger.shed += 1,
            ReqOutcome::Throttled => ledger.throttled += 1,
            ReqOutcome::ShardOutOfSpace => ledger.dropped += 1,
        }
    }

    let collect_s = collect.elapsed().as_secs_f64();
    let tf = Instant::now();
    let shards: Vec<FrontendShardResult> = spans.time("harness.finish", || frontend.finish());
    let finish_s = tf.elapsed().as_secs_f64();
    let run_s = run.elapsed().as_secs_f64() - collect_s;

    let report = spans.time("metrics.merge", || merged_report(cfg, &shards));
    let render = spans.time("metrics.render", || report.render());
    let shard_results: Vec<RunResult> = shards.into_iter().map(|s| s.result).collect();
    let modeled = modeled(&report, &shard_results, ledger.offered, interactive_sojourn);
    Ok(ServeRun {
        modeled,
        ledger,
        report,
        shard_results,
        render,
        setup_s,
        run_s,
        finish_s,
        pending_max,
        in_flight_max,
    })
}

/// The merged report exactly as `run_frontend` attaches it.
fn merged_report(cfg: &FrontendRun, shards: &[FrontendShardResult]) -> RunReport {
    let reports = shards
        .iter()
        .enumerate()
        .map(|(index, shard)| {
            let mut report = shard_report(cfg.base.queue_depth, index, &shard.result);
            if !cfg.is_conformant() {
                report.queue_delay = Some(shard.queue_delay.clone());
                report.load = Some(shard.load);
            }
            if cfg.slo.is_active() {
                report.slo = Some(shard.slo);
            }
            if cfg.mt_active() {
                report.mt = Some(shard.mt.clone());
            }
            report
        })
        .collect();
    RunReport::merge(cfg.label(), cfg.clients, reports)
}

fn modeled(
    report: &RunReport,
    shards: &[RunResult],
    offered: u64,
    interactive_sojourn: Vec<u64>,
) -> Modeled {
    let host_bytes_written: u64 = shards.iter().map(|r| r.host_bytes_written).sum();
    // Each shard's WA-D is its NAND bytes over its host bytes.
    let nand_bytes_written: f64 = shards
        .iter()
        .map(|r| r.steady.wa_d * r.host_bytes_written as f64)
        .sum();
    let disk_used: u64 = shards.iter().map(|r| r.disk_used_bytes).sum();
    let dataset: u64 = shards.iter().map(|r| r.dataset_bytes).sum();
    Modeled {
        offered,
        ops: report.ops,
        steady_kops: report.steady_mean("kv_kops").unwrap_or(0.0),
        interactive_sojourn,
        latency_cdf: report.latency.cdf_points(),
        lat_mean: report.latency.mean(),
        app_bytes: report.app_bytes,
        host_bytes_written,
        host_bytes_read: shards.iter().map(|r| r.host_bytes_read).sum(),
        nand_bytes_written,
        wa_a: report.wa_a(),
        wa_d: if host_bytes_written == 0 {
            1.0
        } else {
            nand_bytes_written / host_bytes_written as f64
        },
        space_amp: disk_used as f64 / dataset.max(1) as f64,
    }
}
