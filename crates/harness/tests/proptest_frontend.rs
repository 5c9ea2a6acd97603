//! Property tests of the serving front-end dispatcher.
//!
//! Arbitrary request streams — random kinds, keys, inter-submission
//! gaps, shard counts, routing modes and dispatcher depths, with
//! completions collected through a random mix of `take`/`poll`/
//! `wait`/`wait_all` — must uphold the dispatcher's four contracts:
//!
//! 1. **exactly-once completion**: every submitted request produces
//!    exactly one completion record, under any collection pattern;
//! 2. **timestamp sanity**: `submitted_at <= issued_at <= done_at`,
//!    submission times never decrease along the stream, and
//!    `queue_delay + service == sojourn`;
//! 3. **bounded inflight**: at no virtual instant does a shard hold
//!    more admitted-but-incomplete requests than the configured
//!    dispatcher depth (departures at time `t` free their slot before
//!    admissions at `t`, the `IoQueue` discipline);
//! 4. **FIFO decides at submission**: every request is resolved when
//!    `submit` returns, so `take` never misses an uncollected token.

use proptest::prelude::*;

use ptsbench_core::frontend::FrontendRun;
use ptsbench_core::registry::EngineKind;
use ptsbench_core::runner::RunConfig;
use ptsbench_core::sharded::Sharding;
use ptsbench_harness::{Frontend, ReqCompletion, ReqOutcome, Request};
use ptsbench_ssd::MINUTE;
use ptsbench_workload::OpKind;

/// A small stack per case: 16 MiB shards (the SSD1 geometry floor) and
/// a thin dataset so debug-mode bulk loads stay cheap.
fn config(shards: usize, depth: usize, hashed: bool) -> FrontendRun {
    let mut cfg = FrontendRun::new(
        RunConfig {
            engine: EngineKind::lsm(),
            device_bytes: (shards as u64) * (16 << 20),
            dataset_fraction: 0.1,
            duration: 30 * MINUTE,
            sample_window: 10 * MINUTE,
            ..RunConfig::default()
        },
        shards,
    );
    cfg.shards = shards;
    cfg.queue_depth = depth;
    cfg.sharding = if hashed {
        Sharding::Hashed
    } else {
        Sharding::Contiguous
    };
    cfg
}

/// Sweeps each shard's admission intervals and asserts the concurrent
/// count never exceeds `depth`. Departures sort before arrivals at the
/// same instant: a slot whose completion time has arrived is free.
fn assert_inflight_bounded(completions: &[ReqCompletion], shards: usize, depth: usize) {
    for shard in 0..shards {
        let mut events: Vec<(u64, i64)> = Vec::new();
        for c in completions
            .iter()
            .filter(|c| c.shard == shard && c.outcome == ReqOutcome::Served)
        {
            events.push((c.issued_at, 1));
            events.push((c.done_at, -1));
        }
        events.sort_by_key(|&(t, delta)| (t, delta)); // -1 before +1 on ties
        let mut inflight = 0i64;
        let mut max_inflight = 0i64;
        for (_, delta) in events {
            inflight += delta;
            max_inflight = max_inflight.max(inflight);
        }
        assert!(
            max_inflight as usize <= depth,
            "shard {shard}: {max_inflight} in flight exceeds depth {depth}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn every_request_completes_exactly_once_with_sane_timestamps(
        shards in 1usize..4,
        depth in 1usize..6,
        hashed in any::<bool>(),
        ops in 40usize..160,
        seed in any::<u64>(),
    ) {
        let cfg = config(shards, depth, hashed);
        let num_keys = cfg.base.workload().num_keys;
        let mut frontend = Frontend::new(&cfg).expect("frontend");

        let mut rng = seed;
        let mut next = move |bound: u64| {
            // SplitMix64: deterministic stream driving the request mix.
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };

        let mut submitted = 0u64;
        let mut collected: Vec<ReqCompletion> = Vec::new();
        let mut outstanding = Vec::new();
        let mut last_submit_time = 0;
        for _ in 0..ops {
            // Arbitrary arrival gaps, including bursts at the same time.
            frontend.advance_to(frontend.now() + next(2_000_000));
            let kind = if next(2) == 0 { OpKind::Read } else { OpKind::Update };
            let token = frontend
                .submit(Request {
                    kind,
                    key_index: next(num_keys),
                    value: if kind == OpKind::Update { vec![0xAB; 32] } else { Vec::new() },
                    ..Default::default()
                })
                .expect("submit");
            submitted += 1;
            outstanding.push(token);
            // FIFO decides at submission because its order is final:
            // every submitted, uncollected request is already resolved.
            prop_assert_eq!(frontend.pending(), outstanding.len());
            prop_assert!(frontend.now() >= last_submit_time);
            last_submit_time = frontend.now();

            // Randomly interleave collection styles.
            match next(4) {
                0 => {
                    if let Some(c) = frontend.poll() {
                        collected.push(c);
                        outstanding.retain(|t| Some(*t) != collected.last().map(|c| c.token));
                    }
                }
                1 if !outstanding.is_empty() => {
                    let token = outstanding.swap_remove(next(outstanding.len() as u64) as usize);
                    collected.push(frontend.wait(token));
                }
                2 if !outstanding.is_empty() => {
                    let token = outstanding.swap_remove(next(outstanding.len() as u64) as usize);
                    let c = frontend.take(token);
                    prop_assert!(c.is_some(), "FIFO resolved {token:?} at submit");
                    collected.extend(c);
                }
                _ => {}
            }
        }
        collected.extend(frontend.wait_all());
        prop_assert_eq!(frontend.pending(), 0);

        // 1. Exactly once.
        prop_assert_eq!(collected.len() as u64, submitted, "every request completes");
        let mut tokens: Vec<_> = collected.iter().map(|c| c.token).collect();
        tokens.sort();
        tokens.dedup();
        prop_assert_eq!(tokens.len() as u64, submitted, "no token completes twice");

        // 2. Timestamp sanity.
        for c in &collected {
            prop_assert!(c.submitted_at <= c.issued_at, "{c:?}");
            prop_assert!(c.issued_at <= c.done_at, "{c:?}");
            prop_assert_eq!(c.queue_delay() + c.service_ns, c.sojourn());
            prop_assert!(c.shard < shards);
            if c.outcome == ReqOutcome::Served {
                prop_assert!(c.service_ns > 0, "served requests do work: {c:?}");
            } else {
                prop_assert_eq!(c.service_ns, 0);
            }
        }

        // 3. Bounded per-shard inflight.
        assert_inflight_bounded(&collected, shards, depth);
    }
}
