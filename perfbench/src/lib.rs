//! End-to-end and per-layer benchmark of the Sentry reproduction.
//!
//! Four seeded workloads drive the public APIs of `sentry-core`,
//! `sentry-kernel` and `sentry-workloads`. Each run sets its workload up
//! several times (the median is `setup_s`), then runs the workload's
//! seeded operation stream in a closed loop with one simulated client for
//! the requested host seconds, and never fewer than the workload's fixed
//! prefix of operations. Simulated-time percentiles, per-layer counters
//! and the digest cover exactly that prefix, so they are a pure function
//! of the seed; host throughput covers every operation run. Every byte
//! the program returns is checked against a shadow model.
//!
//! See `perfbench/README.md` for the workloads, the metrics and which
//! layer metric should move which end-to-end metric.

mod background;
mod counters;
mod file_io;
mod fleet;
mod lock_cycle;
pub mod meter;
pub mod report;
pub mod stats;

use meter::Meter;
use stats::{Samples, FNV_OFFSET};
use std::collections::BTreeMap;
use std::time::Instant;

/// Times each run sets its workload up; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Lock → unlock → resume → random touches, bulk page crypt.
    AppLockCycle,
    /// `SimpleFs` over CTR dm-crypt with the read pipeline on.
    EncryptedFileIo,
    /// Background apps paging through a small locked-L2 slot budget.
    LockedBackground,
    /// Small seeded fleet devices under the default chaos event mix.
    FleetChaos,
}

impl WorkloadKind {
    /// Every workload, in report order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::AppLockCycle,
        WorkloadKind::EncryptedFileIo,
        WorkloadKind::LockedBackground,
        WorkloadKind::FleetChaos,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::AppLockCycle => "app_lock_cycle",
            WorkloadKind::EncryptedFileIo => "encrypted_file_io",
            WorkloadKind::LockedBackground => "locked_background",
            WorkloadKind::FleetChaos => "fleet_chaos",
        }
    }

    /// What one operation of the workload is.
    #[must_use]
    pub fn op_unit(self) -> &'static str {
        match self {
            WorkloadKind::AppLockCycle => "lock cycle",
            WorkloadKind::EncryptedFileIo => "burst of 16 file ops",
            WorkloadKind::LockedBackground => "burst of 16 background ops",
            WorkloadKind::FleetChaos => "device session",
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// Host seconds the measured phase lasts at least.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Small sizes for the self-tests.
    pub tiny: bool,
}

/// Latency families recorded per operation, with their unit divisor.
pub const FAMILIES: [(&str, &str, f64); 7] = [
    ("op_sim_us", "us", 1e3),
    ("lock_sim_ms", "ms", 1e6),
    ("resume_sim_ms", "ms", 1e6),
    ("fault_sim_us", "us", 1e3),
    ("read_sim_us", "us", 1e3),
    ("write_sim_us", "us", 1e3),
    ("bg_op_sim_us", "us", 1e3),
];

/// What a workload records while the deterministic prefix runs.
#[derive(Debug)]
pub struct Rec {
    counting: bool,
    samples: BTreeMap<&'static str, Samples>,
    digest: u64,
}

impl Default for Rec {
    fn default() -> Self {
        Rec {
            counting: true,
            samples: BTreeMap::new(),
            digest: FNV_OFFSET,
        }
    }
}

impl Rec {
    /// Record a latency sample of `family` (see [`FAMILIES`]).
    pub fn sample(&mut self, family: &'static str, ns: u64) {
        debug_assert!(FAMILIES.iter().any(|f| f.0 == family), "{family}");
        if self.counting {
            self.samples.entry(family).or_default().push(ns);
        }
    }

    /// Fold bytes the program returned into the digest.
    pub fn returned(&mut self, bytes: &[u8]) {
        if self.counting {
            stats::fnv1a(&mut self.digest, bytes);
        }
    }
}

/// Cumulative counters of a workload's layers, by per-layer metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// A benchmark workload: set up, then a seeded stream of operations.
pub trait Workload {
    /// Run operation `k`: open and close it on the meter, time every
    /// layer call through it, check every returned byte.
    ///
    /// # Errors
    ///
    /// A description of the failure: an untyped error, a shadow
    /// mismatch, or a silent corruption.
    fn op(&mut self, k: u64, meter: &mut Meter, rec: &mut Rec) -> Result<(), String>;

    /// Cumulative public-stats counters (deltas are taken by the
    /// harness).
    fn counters(&mut self) -> Counters;

    /// Digest of the end state the shadow model holds.
    fn state_digest(&self) -> u64;

    /// Simulated ns the workload's clocks have advanced in total.
    fn sim_total(&self) -> u64;

    /// Operations in the deterministic prefix.
    fn prefix_ops(&self) -> u64;
}

fn build(kind: WorkloadKind, p: &Params) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        WorkloadKind::AppLockCycle => Box::new(lock_cycle::LockCycle::setup(p)?),
        WorkloadKind::EncryptedFileIo => Box::new(file_io::FileIo::setup(p)?),
        WorkloadKind::LockedBackground => Box::new(background::Background::setup(p)?),
        WorkloadKind::FleetChaos => Box::new(fleet::Fleet::setup(p)?),
    })
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunResult {
    /// Workload run.
    pub kind: WorkloadKind,
    /// Run parameters.
    pub params: Params,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failure descriptions (first few).
    pub failures: Vec<String>,
    /// Operations in the deterministic prefix.
    pub prefix_ops: u64,
    /// Latency samples per family over the prefix.
    pub samples: BTreeMap<&'static str, Samples>,
    /// Median host CPU seconds of one set-up.
    pub setup_s: f64,
    /// Operations per host CPU second: the median over blocks of
    /// consecutive untraced operations in the measured phase.
    pub host_ops_per_s: f64,
    /// Peak resident memory of the process over set-up and the
    /// deterministic prefix, MiB.
    pub peak_rss_mib: f64,
    /// FNV-1a digest of the prefix's returned bytes and end state.
    pub digest: u64,
    /// Per-layer metrics (deltas over the prefix, plus derived ratios).
    pub layers: BTreeMap<String, f64>,
    /// Host self time per span name: (self ns, total ns).
    pub self_times: BTreeMap<&'static str, (u64, u64)>,
    /// Simulated ns no call or benchmark advance accounts for.
    pub unattributed_sim_ns: u64,
    /// Simulated ns the benchmark charged itself.
    pub bench_advance_ns: u64,
    /// Share of host throughput lost to span recording (traced runs).
    pub tracing_overhead: f64,
    /// Host cores available.
    pub host_cores: usize,
    /// Spans recorded in the traced blocks.
    pub spans: Vec<meter::Span>,
}

impl RunResult {
    /// Whether the run's outputs were all correct.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.unattributed_sim_ns == 0
    }
}

/// Metrics that are absolute at the end of the prefix rather than
/// deltas over it.
pub(crate) const GAUGES: [&str; 2] = ["soc.accel.max_depth", "core.pressure.high_water_bytes"];

/// Run one workload.
///
/// # Errors
///
/// Set-up failures (the workload could not be built).
pub fn run(kind: WorkloadKind, params: &Params) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = stats::process_cpu_s();
        built = Some(build(kind, params)?);
        setups.push(stats::process_cpu_s() - t);
    }
    let mut w = built.expect("SETUPS > 0");
    let prefix = w.prefix_ops();
    // Host throughput is the median over blocks of consecutive ops, so a
    // burst of interference from the rest of the host moves a few blocks,
    // not the result. Blocks and set-ups are timed in process CPU time,
    // which leaves out the time a shared host deschedules the machine. Traced runs alternate span recording by block, so
    // both sides see the same stretch of the stream.
    let block = (prefix / 40).max(1);

    let mut meter = Meter::default();
    let mut rec = Rec::default();
    let c0 = w.counters();
    let sim0 = w.sim_total();
    let mut c1 = None;
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut block_start = stats::process_cpu_s();
    let start = Instant::now();
    let mut k = 0u64;
    loop {
        if k == prefix {
            meter.close_prefix();
            rec.counting = false;
            c1 = Some((w.counters(), w.state_digest(), stats::peak_rss_mib()));
        }
        let traced = params.trace && (k / block).is_multiple_of(2);
        if k > 0 && k.is_multiple_of(block) {
            #[allow(clippy::cast_precision_loss)]
            let rate = block as f64 / (stats::process_cpu_s() - block_start).max(1e-9);
            let was_traced = params.trace && ((k - 1) / block).is_multiple_of(2);
            rates[usize::from(was_traced)].push(rate);
            let done = k >= prefix && start.elapsed().as_secs_f64() >= params.seconds;
            if done && (!params.trace || traced) {
                break;
            }
            block_start = stats::process_cpu_s();
        }
        meter.set_recording(traced);
        if let Err(e) = w.op(k, &mut meter, &mut rec) {
            failed += 1;
            if failures.len() < 8 {
                failures.push(format!("op {k}: {e}"));
            }
        }
        k += 1;
    }
    let (c1, state_digest, peak_rss_mib) = c1.expect("the loop passes the prefix boundary");
    // The phase's whole clock delta against every call and advance.
    let phase = w.sim_total() - sim0;
    meter.note_unattributed(phase.abs_diff(meter.total_attributed()));

    let mut digest = rec.digest;
    stats::fnv1a(&mut digest, &state_digest.to_le_bytes());

    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    for (name, v1) in &c1 {
        let v0 = c0.get(name).copied().unwrap_or(0.0);
        let v = if GAUGES.contains(name) { *v1 } else { v1 - v0 };
        layers.insert((*name).to_string(), v);
    }
    for (name, agg) in meter.layers() {
        #[allow(clippy::cast_precision_loss)]
        {
            layers.insert(format!("{name}.calls"), agg.calls as f64);
            layers.insert(format!("{name}.host_ns"), agg.host_ns as f64);
            layers.insert(format!("{name}.sim_ns"), agg.sim_ns as f64);
        }
    }
    let untraced = stats::median(&rates[0]);
    let traced = stats::median(&rates[1]);
    let tracing_overhead = if params.trace && untraced > 0.0 && traced > 0.0 {
        1.0 - traced / untraced
    } else {
        0.0
    };
    let self_times = meter.self_times();
    Ok(RunResult {
        kind,
        params: *params,
        attempted: k,
        failed,
        failures,
        prefix_ops: prefix,
        samples: rec.samples,
        setup_s: stats::median(&setups),
        host_ops_per_s: untraced,
        peak_rss_mib,
        digest,
        layers,
        self_times,
        unattributed_sim_ns: meter.unattributed_ns(),
        bench_advance_ns: meter.bench_advance_ns(),
        tracing_overhead,
        host_cores: stats::host_cores(),
        spans: meter.into_spans(),
    })
}
