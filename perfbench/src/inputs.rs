//! The three workloads and their seeded inputs.
//!
//! Every phase draws its records from an endless generator seeded from the
//! benchmark's `--seed` and the phase number, so the sender and the reader
//! can each run their own copy: the reader regenerates the input it
//! verifies against instead of holding everything that was sent.

use zipline::host::HostPathConfig;
use zipline_engine::{FlowKey, SyncPolicy};
use zipline_traces::{
    ChunkWorkload, DnsWorkload, DnsWorkloadConfig, ManyFlowsConfig, ManyFlowsWorkload,
    SensorWorkload, SensorWorkloadConfig,
};

/// Size of every generated record (the paper's 256-bit chunk).
pub const RECORD_BYTES: usize = 32;

/// Phases stop on the clock, never on input: generators are this long.
const ENDLESS: usize = 1 << 40;

/// The key classic (one stream per connection) records carry.
pub const CLASSIC: FlowKey = FlowKey { tenant: 0, flow: 0 };

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// IoT sensor trace, GD backend, one classic stream in memory.
    SensorGd,
    /// Campus DNS trace, auto backend, one classic stream in memory.
    DnsAuto,
    /// 8 tenants × 64 zipf flows multiplexed, GD, durable with fdatasync.
    FlowsDurable,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::SensorGd, Self::DnsAuto, Self::FlowsDurable];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::SensorGd => "sensor_gd",
            Self::DnsAuto => "dns_auto",
            Self::FlowsDurable => "flows_durable",
        }
    }

    /// The `--backend` the server runs.
    pub fn backend(self) -> &'static str {
        match self {
            Self::DnsAuto => "auto",
            Self::SensorGd | Self::FlowsDurable => "gd",
        }
    }

    /// True when the server journals with `--durable DIR --sync data`.
    pub fn durable(self) -> bool {
        self == Self::FlowsDurable
    }

    /// Paced streams per untraced run; latency quantiles are their medians.
    pub fn paced_streams(self) -> u64 {
        match self {
            Self::SensorGd | Self::DnsAuto => 5,
            Self::FlowsDurable => 3,
        }
    }

    /// Flood streams per untraced run; goodput and server CPU are their
    /// trimmed means. Every multiplexed stream ends by finishing and
    /// compacting 64 synced journals, so `flows_durable` runs fewer, longer
    /// streams to keep that drain from dominating its goodput.
    pub fn flood_streams(self) -> u64 {
        match self {
            Self::SensorGd | Self::DnsAuto => 10,
            Self::FlowsDurable => 3,
        }
    }

    /// The host configuration `zipline-serverd` builds from these flags
    /// (its defaults plus the workload's durability), for the in-process
    /// replay. `durable` names the store directory when the workload is
    /// durable.
    pub fn host_config(self, durable: Option<std::path::PathBuf>) -> HostPathConfig {
        let mut host = HostPathConfig::paper_default();
        host.pipeline_depth = Some(2);
        if self.durable() {
            host.durable = durable;
            host.sync = SyncPolicy::Data;
        }
        host
    }
}

/// One input record and the flow it belongs to ([`CLASSIC`] for a
/// single-stream workload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The owning flow.
    pub key: FlowKey,
    /// The record bytes.
    pub bytes: Vec<u8>,
}

enum Source {
    Sensor(SensorWorkload),
    Dns(DnsWorkload),
    Flows(ManyFlowsWorkload),
}

/// The seeded input of one phase.
pub struct Inputs {
    source: Source,
    /// Added to every flow id, so each phase opens fresh flows.
    flow_base: u64,
}

/// SplitMix64 finalizer: spreads `(seed, phase)` over the seed space.
fn mix(seed: u64, phase: u64) -> u64 {
    let mut z = seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// The input of `phase` for `workload` under the benchmark `seed`.
    pub fn new(workload: Workload, seed: u64, phase: u64) -> Self {
        let seed = mix(seed, phase);
        let source = match workload {
            Workload::SensorGd => Source::Sensor(SensorWorkload::new(SensorWorkloadConfig {
                chunks: ENDLESS,
                seed,
                ..SensorWorkloadConfig::paper_scale()
            })),
            Workload::DnsAuto => Source::Dns(DnsWorkload::new(DnsWorkloadConfig {
                queries: ENDLESS,
                seed,
                ..DnsWorkloadConfig::paper_scale()
            })),
            Workload::FlowsDurable => Source::Flows(ManyFlowsWorkload::new(ManyFlowsConfig {
                chunks: ENDLESS,
                seed,
                ..ManyFlowsConfig::small()
            })),
        };
        Self {
            source,
            flow_base: phase << 32,
        }
    }

    /// The same records on the fresh stream or flow ids of `phase`, for a
    /// stream that repeats another phase's input.
    pub fn with_ids(mut self, phase: u64) -> Self {
        self.flow_base = phase << 32;
        self
    }

    /// The endless, deterministic record sequence.
    pub fn records(&self) -> Box<dyn Iterator<Item = Record> + '_> {
        let classic = |bytes| Record {
            key: CLASSIC,
            bytes,
        };
        match &self.source {
            Source::Sensor(w) => Box::new(w.chunks().map(classic)),
            Source::Dns(w) => Box::new(w.chunks().map(classic)),
            Source::Flows(w) => Box::new(w.events().map(|event| Record {
                key: FlowKey::new(event.tenant, self.flow_base + event.flow),
                bytes: event.bytes,
            })),
        }
    }

    /// Every flow the phase opens; empty for a single-stream workload.
    pub fn flow_keys(&self) -> Vec<FlowKey> {
        match &self.source {
            Source::Flows(w) => w
                .keys()
                .into_iter()
                .map(|(tenant, flow)| FlowKey::new(tenant, self.flow_base + flow))
                .collect(),
            Source::Sensor(_) | Source::Dns(_) => Vec::new(),
        }
    }

    /// The first `n` records, concatenated.
    pub fn flat(&self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n * RECORD_BYTES);
        for record in self.records().take(n) {
            out.extend_from_slice(&record.bytes);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(workload: Workload, seed: u64, phase: u64, n: usize) -> Vec<Record> {
        Inputs::new(workload, seed, phase)
            .records()
            .take(n)
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for workload in Workload::ALL {
            let a = first(workload, 7, 1, 4096);
            assert_eq!(a, first(workload, 7, 1, 4096), "{}", workload.name());
            assert!(a.iter().all(|r| r.bytes.len() == RECORD_BYTES));
        }
    }

    #[test]
    fn seeds_and_phases_change_the_inputs() {
        for workload in Workload::ALL {
            let a = first(workload, 7, 1, 4096);
            assert_ne!(a, first(workload, 8, 1, 4096), "{}", workload.name());
            assert_ne!(a, first(workload, 7, 2, 4096), "{}", workload.name());
        }
    }

    #[test]
    fn each_phase_opens_fresh_flows() {
        let paced = Inputs::new(Workload::FlowsDurable, 7, 1).flow_keys();
        let flood = Inputs::new(Workload::FlowsDurable, 7, 2).flow_keys();
        assert_eq!(paced.len(), 64);
        assert!(paced.iter().all(|key| !flood.contains(key)));
        let records = first(Workload::FlowsDurable, 7, 1, 4096);
        assert!(records.iter().all(|r| paced.contains(&r.key)));
        assert!(Inputs::new(Workload::SensorGd, 7, 1).flow_keys().is_empty());
    }

    #[test]
    fn renumbered_inputs_repeat_the_records_on_fresh_flows() {
        let original = Inputs::new(Workload::FlowsDurable, 7, 1);
        let repeat = Inputs::new(Workload::FlowsDurable, 7, 1).with_ids(2);
        let fresh = repeat.flow_keys();
        assert!(original.flow_keys().iter().all(|key| !fresh.contains(key)));
        let bytes = |inputs: &Inputs| -> Vec<Vec<u8>> {
            inputs.records().take(4096).map(|r| r.bytes).collect()
        };
        assert_eq!(bytes(&original), bytes(&repeat));
        assert!(repeat.records().take(4096).all(|r| fresh.contains(&r.key)));
    }
}
