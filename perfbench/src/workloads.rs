//! The four benchmark workloads: fixed, paper-shaped configurations
//! whose only free parameter is the seed.

use ptsbench_core::frontend::{DispatchDiscipline, FrontendRun, TenantSpec};
use ptsbench_core::registry::EngineKind;
use ptsbench_core::runner::RunConfig;
use ptsbench_core::sharded::Sharding;
use ptsbench_core::{DriveState, MaintConfig, ReqClass};
use ptsbench_ssd::{Ns, MILLISECOND, MINUTE};
use ptsbench_workload::{ArrivalSpec, KeyDistribution};

/// The paper-figure stand-in device (`PitfallOptions::default`).
pub const DEVICE_BYTES: u64 = 64 << 20;
/// Measured-phase length of every workload (`PitfallOptions::default`).
pub const DURATION: Ns = 210 * MINUTE;
/// Sampling window (`PitfallOptions::default`).
pub const WINDOW: Ns = 10 * MINUTE;
/// Block-cache budget of `lsm-read-cached` (half the 32 MiB dataset).
pub const READ_CACHE_BYTES: u64 = 16 << 20;
/// Shards behind the `serve-mt` dispatcher.
pub const SERVE_SHARDS: usize = 4;
/// Mean gap between one interactive client's requests (2 clients).
pub const INTERACTIVE_GAP: Ns = 4_800 * MILLISECOND;
/// Mean gap between the batch client's requests (1 client).
pub const BATCH_GAP: Ns = 400 * MILLISECOND;
/// WFQ class weights: interactive, batch, background.
pub const WFQ_WEIGHTS: [u32; 3] = [8, 1, 1];

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LsmUpdate,
    BtreeMixed,
    LsmReadCached,
    ServeMt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LsmUpdate,
        Workload::BtreeMixed,
        Workload::LsmReadCached,
        Workload::ServeMt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LsmUpdate => "lsm-update",
            Workload::BtreeMixed => "btree-mixed",
            Workload::LsmReadCached => "lsm-read-cached",
            Workload::ServeMt => "serve-mt",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The single-stack configuration of a closed-loop workload, or the
    /// base configuration the `serve-mt` fleet is sliced from.
    pub fn run_config(self, seed: u64) -> RunConfig {
        let base = RunConfig {
            device_bytes: DEVICE_BYTES,
            duration: DURATION,
            sample_window: WINDOW,
            seed,
            ..RunConfig::default()
        };
        match self {
            Workload::LsmUpdate => RunConfig {
                engine: EngineKind::lsm(),
                drive_state: DriveState::Preconditioned,
                ..base
            },
            Workload::BtreeMixed => RunConfig {
                engine: EngineKind::btree(),
                drive_state: DriveState::Preconditioned,
                read_fraction: 0.5,
                ..base
            },
            Workload::LsmReadCached => RunConfig {
                engine: EngineKind::lsm(),
                read_fraction: 1.0,
                distribution: KeyDistribution::Zipfian { theta: 0.9 },
                cache_bytes: READ_CACHE_BYTES,
                compression_level: 3,
                ..base
            },
            Workload::ServeMt => RunConfig {
                engine: ptsbench_hashlog::register(),
                read_fraction: 0.5,
                maint: MaintConfig::enabled(),
                ..base
            },
        }
    }

    /// The serving configuration of `serve-mt`.
    pub fn frontend_run(seed: u64) -> FrontendRun {
        let mut interactive = TenantSpec::new(ReqClass::Interactive, 2);
        interactive.arrival = Some(ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: INTERACTIVE_GAP,
        });
        let mut batch = TenantSpec::new(ReqClass::Batch, 1);
        batch.arrival = Some(ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: BATCH_GAP,
        });
        let mut cfg = FrontendRun::new(Workload::ServeMt.run_config(seed), 3);
        cfg.shards = SERVE_SHARDS;
        cfg.sharding = Sharding::Hashed;
        cfg.discipline = DispatchDiscipline::WeightedFair {
            weights: WFQ_WEIGHTS,
        };
        cfg.tenants = vec![interactive, batch];
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly these workloads.
    #[test]
    fn benchmark_json_lists_every_workload() {
        let json = include_str!("../../BENCHMARK.json");
        let section = &json[json.find("\"workloads\"").expect("workloads key")
            ..json.find("\"end_to_end\"").expect("end_to_end key")];
        for w in Workload::ALL {
            assert!(section.contains(&format!("\"name\": \"{}\"", w.name())));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(section.matches("\"name\"").count(), Workload::ALL.len());
    }
}
