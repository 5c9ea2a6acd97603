//! The repository benchmark: host cost and modeled KPIs of the
//! simulated flash stack over four paper-shaped workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on untraced runs;
//! `--trace 1` pairs untraced and traced runs and reports per-layer
//! metrics. Both print one line per metric, then a one-line JSON result
//! as the last line of standard output, and exit non-zero when a
//! correctness check or a cross-check fails. See `NOTES.md` for the
//! workloads and every metric's meaning.

mod closed;
mod cpus;
mod layers;
mod report;
mod serve;
mod spans;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ptsbench_core::engine::PtsError;
use ptsbench_core::runner::RunConfig;

use report::{median, peak_rss_mib, quantile, Metrics};
use spans::HostSpans;
use workloads::Workload;

/// Every run repeats its workload at least this often, so a median
/// exists even when one repeat outlasts `--seconds`.
const MIN_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What one invocation measured and checked.
#[derive(Default)]
struct Outcome {
    metrics: Metrics,
    /// Operations issued: measured-phase ops of every pass plus the
    /// read-back gets.
    attempted: u64,
    /// Operations that failed: read mismatches, and requests rejected,
    /// shed, throttled, dropped or lost.
    failed: u64,
    /// Cross-check failures (modeled results that differ between passes
    /// that must agree exactly, a report that differs from the
    /// reference render).
    problems: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Repeats `pass` until `budget` has elapsed and at least
/// [`MIN_REPEATS`] passes ran.
fn repeat<T>(
    budget: Duration,
    mut pass: impl FnMut() -> Result<T, PtsError>,
) -> Result<Vec<T>, PtsError> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPEATS || start.elapsed() < budget {
        out.push(pass()?);
    }
    Ok(out)
}

/// Timed passes pinned to one CPU (`None`: unpinned).
type Lane<T> = (Option<usize>, Vec<T>);

/// Runs timed passes until `budget` has elapsed, rotating them across
/// the allowed CPUs (see [`cpus`]) with at least [`MIN_REPEATS`] passes
/// on each. Returns the passes grouped by CPU; a single unpinned group
/// when there is one CPU or pinning fails.
fn timed_passes<T>(
    budget: Duration,
    mut pass: impl FnMut() -> Result<T, PtsError>,
) -> Result<Vec<Lane<T>>, PtsError> {
    let allowed = cpus::allowed();
    let mut lanes: Vec<Lane<T>> = if allowed.len() > 1 && cpus::pin(allowed[0]) {
        allowed.into_iter().map(|c| (Some(c), Vec::new())).collect()
    } else {
        vec![(None, Vec::new())]
    };
    let start = Instant::now();
    let mut i = 0;
    while lanes.iter().any(|(_, l)| l.len() < MIN_REPEATS) || start.elapsed() < budget {
        let n = lanes.len();
        let (cpu, passes) = &mut lanes[i % n];
        if let Some(cpu) = cpu {
            cpus::pin(*cpu);
        }
        passes.push(pass()?);
        i += 1;
    }
    Ok(lanes)
}

/// The end-to-end metrics from the timed passes' `(setup_s, run_s,
/// ops)`, the exact latency samples (virtual ns on the scaled device)
/// and the modeled `(ops, kops, wa_a, wa_d, space_amp)`.
fn end_to_end(
    out: &mut Outcome,
    lanes: Vec<Lane<(f64, f64, u64)>>,
    latencies: &[u64],
    scale: f64,
    (ops, kops, wa_a, wa_d, space_amp): (u64, f64, f64, f64, f64),
) {
    // Each host timing is its median over one CPU's passes, taken on
    // the CPU where it ran fastest.
    let best = |f: &dyn Fn(&(f64, f64, u64)) -> f64, faster: fn(f64, f64) -> f64| {
        lanes
            .iter()
            .map(|(_, p)| median(&p.iter().map(f).collect::<Vec<_>>()))
            .reduce(faster)
            .expect("at least one lane")
    };
    for (cpu, p) in &lanes {
        let cpu = cpu.map_or("unpinned".to_string(), |c| format!("cpu {c}"));
        let run = median(&p.iter().map(|p| p.1).collect::<Vec<_>>());
        eprintln!(
            "perfbench: {cpu}: {} passes, median run_s {run:.6}",
            p.len()
        );
    }
    let ms = |ns: f64| ns / scale / 1e6;
    let lat: Vec<f64> = latencies.iter().map(|&l| l as f64).collect();
    let e = &mut out.metrics;
    e.put("setup_s", best(&|p| p.0, f64::min), "s");
    e.put("run_s", best(&|p| p.1, f64::min), "s");
    e.put(
        "sim_ops_per_wall_s",
        best(&|p| p.2 as f64 / p.1, f64::max),
        "ops/s",
    );
    e.put("peak_rss_mib", peak_rss_mib(), "MiB");
    e.put("ops", ops as f64, "count");
    e.put("kops", kops, "Kops");
    e.put(
        "lat_mean_ms",
        ms(lat.iter().sum::<f64>() / lat.len() as f64),
        "ms",
    );
    e.put("wa_a", wa_a, "ratio");
    e.put("wa_d", wa_d, "ratio");
    e.put("space_amp", space_amp, "ratio");
    // Shown, not reported: modeled latencies take few distinct values,
    // so these quantiles read the same for every seed on some workloads
    // (the median is the bare CPU charge on the closed loops, the p99 a
    // single block read on `lsm-read-cached`) and swing by up to 3x between
    // seeds on others. Failures are counted in the result line itself.
    e.note("lat_p50_ms", ms(quantile(latencies, 0.5) as f64), "ms");
    e.note("lat_p99_ms", ms(quantile(latencies, 0.99) as f64), "ms");
    e.note(
        "failed_frac",
        report::ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );
}

fn closed_loop(cfg: &RunConfig, args: &Args) -> Result<Outcome, PtsError> {
    let mut out = Outcome::default();
    let budget = Duration::from_secs(args.seconds);
    let scale = cfg.scale();
    if !args.trace {
        // Correctness pass first (it also warms the allocator): every
        // read and the final read-back must return the last value
        // written.
        let check = closed::mirror(cfg, &mut HostSpans::new(false))?;
        out.attempted += check.modeled.ops + check.num_keys;
        out.failed += check.mismatches;
        let lanes = timed_passes(budget, || closed::reference(cfg))?;
        for (i, r) in lanes.iter().flat_map(|(_, l)| l).enumerate() {
            out.attempted += r.modeled.ops;
            out.check(r.modeled == check.modeled, || {
                format!(
                    "reference pass {i} differs from the layer-by-layer pass: {:?} vs {:?}",
                    r.modeled, check.modeled
                )
            });
        }
        let m = &check.modeled;
        end_to_end(
            &mut out,
            lanes
                .iter()
                .map(|(cpu, l)| {
                    (
                        *cpu,
                        l.iter()
                            .map(|r| (r.setup_s, r.run_s, r.modeled.ops))
                            .collect(),
                    )
                })
                .collect(),
            &check.latencies,
            scale,
            (m.ops, m.steady_kops, m.wa_a, m.wa_d, m.space_amp),
        );
        return Ok(out);
    }

    let traced_cfg = RunConfig {
        trace: true,
        ..cfg.clone()
    };
    let pairs = repeat(budget, || {
        let untraced = closed::reference(cfg)?;
        let mut spans = HostSpans::new(true);
        let traced = closed::mirror(&traced_cfg, &mut spans)?;
        Ok((untraced, traced, spans))
    })?;
    for (i, (untraced, traced, _)) in pairs.iter().enumerate() {
        out.attempted += untraced.modeled.ops + traced.modeled.ops + traced.num_keys;
        out.failed += traced.mismatches;
        out.check(untraced.modeled == traced.modeled, || {
            format!(
                "traced pass {i} differs from the untraced one: {:?} vs {:?}",
                traced.modeled, untraced.modeled
            )
        });
    }
    out.check(
        pairs
            .iter()
            .all(|(u, _, _)| u.modeled == pairs[0].0.modeled),
        || "untraced passes of one seed differ".to_string(),
    );
    layers::closed(&mut out.metrics, cfg, &pairs);
    let (_, last, spans) = pairs.last().expect("at least one pass");
    layers::write_trace(args.workload.name(), spans, &last.time_by_name);
    Ok(out)
}

fn serve_mt(args: &Args) -> Result<Outcome, PtsError> {
    let mut out = Outcome::default();
    let budget = Duration::from_secs(args.seconds);
    let cfg = Workload::frontend_run(args.seed);
    let scale = cfg.shard_config(0).scale();

    // The reference: the repo's own serving loop. Every untraced pass
    // below must render the identical report.
    let reference = ptsbench_harness::run_frontend(&cfg)?.render();
    let check_pass = |out: &mut Outcome, i: usize, run: &serve::ServeRun, traced: bool| {
        out.attempted += run.ledger.offered;
        out.failed += run.ledger.turned_away() + run.ledger.missing;
        out.check(run.ledger.closes(), || {
            format!(
                "pass {i}: the exactly-once ledger does not close: {:?}",
                run.ledger
            )
        });
        out.check(run.ledger.served == run.report.ops, || {
            format!(
                "pass {i}: {} requests served but the report counts {}",
                run.ledger.served, run.report.ops
            )
        });
        if !traced {
            out.check(run.render == reference, || {
                format!("pass {i}: the report differs from run_frontend's")
            });
        }
    };

    if !args.trace {
        let lanes = timed_passes(budget, || serve::mirror(&cfg, &mut HostSpans::new(false)))?;
        let reps: Vec<&serve::ServeRun> = lanes.iter().flat_map(|(_, l)| l).collect();
        for (i, r) in reps.iter().enumerate() {
            check_pass(&mut out, i, r, false);
            out.check(r.modeled == reps[0].modeled, || {
                format!("pass {i} differs from pass 0")
            });
        }
        let m = &reps[0].modeled;
        end_to_end(
            &mut out,
            lanes
                .iter()
                .map(|(cpu, l)| {
                    (
                        *cpu,
                        l.iter()
                            .map(|r| (r.setup_s, r.run_s, r.modeled.ops))
                            .collect(),
                    )
                })
                .collect(),
            &m.interactive_sojourn,
            scale,
            (m.ops, m.steady_kops, m.wa_a, m.wa_d, m.space_amp),
        );
        return Ok(out);
    }

    let mut traced_cfg = cfg.clone();
    traced_cfg.base.trace = true;
    let pairs = repeat(budget, || {
        let untraced = serve::mirror(&cfg, &mut HostSpans::new(false))?;
        let mut spans = HostSpans::new(true);
        let traced = serve::mirror(&traced_cfg, &mut spans)?;
        Ok((untraced, traced, spans))
    })?;
    for (i, (untraced, traced, _)) in pairs.iter().enumerate() {
        check_pass(&mut out, i, untraced, false);
        check_pass(&mut out, i, traced, true);
        out.check(untraced.modeled == traced.modeled, || {
            format!("traced pass {i} differs from the untraced one")
        });
    }
    layers::serve(&mut out.metrics, &cfg, &pairs);
    let (_, last, spans) = pairs.last().expect("at least one pass");
    layers::write_trace(
        args.workload.name(),
        spans,
        &layers::merged_time_by_name(&last.shard_results),
    );
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::ServeMt => serve_mt(&args),
        w => closed_loop(&w.run_config(args.seed), &args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    print!("{}", outcome.metrics.render_lines(args.workload.name()));
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics reported here.
    #[test]
    fn benchmark_json_lists_every_end_to_end_metric() {
        let mut out = Outcome::default();
        end_to_end(
            &mut out,
            vec![(None, vec![(1.0, 1.0, 1)])],
            &[1],
            1.0,
            (1, 1.0, 1.0, 1.0, 1.0),
        );
        let json = include_str!("../../BENCHMARK.json");
        let section = &json[json.find("\"end_to_end\"").expect("end_to_end key")
            ..json.find("\"per_layer\"").expect("per_layer key")];
        let names = out.metrics.names();
        for name in &names {
            assert!(
                section.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        assert_eq!(section.matches("\"name\"").count(), names.len());
    }
}
