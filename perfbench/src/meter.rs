//! Per-layer call timing, span recording and sim-time accounting.
//!
//! Every call the benchmark makes into a layer's public functions goes
//! through [`Meter::call`], which reads the simulated clock and the host
//! clock on both sides of it. That gives three things:
//!
//! * per-layer aggregates (`calls`, `host_ns`, `sim_ns`) over the
//!   deterministic prefix of the measured phase;
//! * spans (name, host start/end, sim start/end, op id, parent) kept in
//!   memory while span recording is on, written out at the end;
//! * the sim-time accounting check: the measured phase's clock delta
//!   must equal the sum of every call's `sim_ns` plus the benchmark's
//!   own [`Meter::advance`] charges, or the difference is unattributed.

use sentry_soc::clock::SimClock;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Something that owns a simulated clock.
pub trait SimClocked {
    /// Current simulated time, nanoseconds.
    fn sim_now(&self) -> u64;
}

/// Aggregate of one layer call site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside the calls.
    pub host_ns: u64,
    /// Simulated nanoseconds the calls advanced the clock by.
    pub sim_ns: u64,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call (or `bench.op`).
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Host start, ns since the meter was created.
    pub host_start: u64,
    /// Host end, ns since the meter was created.
    pub host_end: u64,
    /// Simulated start, ns.
    pub sim_start: u64,
    /// Simulated end, ns.
    pub sim_end: u64,
}

/// The benchmark's instrument panel for one measured phase.
#[derive(Debug)]
pub struct Meter {
    epoch: Instant,
    recording: bool,
    counting: bool,
    layers: BTreeMap<&'static str, Agg>,
    spans: Vec<Span>,
    op_id: u64,
    op_span: Option<usize>,
    op_start_sim: u64,
    attributed: u64,
    bench_advance_ns: u64,
    unattributed_ns: u64,
}

impl Default for Meter {
    fn default() -> Self {
        Meter {
            epoch: Instant::now(),
            recording: false,
            counting: true,
            layers: BTreeMap::new(),
            spans: Vec::new(),
            op_id: 0,
            op_span: None,
            op_start_sim: 0,
            attributed: 0,
            bench_advance_ns: 0,
            unattributed_ns: 0,
        }
    }
}

impl Meter {
    fn host_now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Turn span recording on or off (aggregates are unaffected).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Stop adding to the per-layer aggregates: the deterministic prefix
    /// of the phase is over.
    pub fn close_prefix(&mut self) {
        self.counting = false;
    }

    /// Time one call into a layer.
    pub fn call<S: SimClocked + ?Sized, T>(
        &mut self,
        name: &'static str,
        target: &mut S,
        f: impl FnOnce(&mut S) -> T,
    ) -> T {
        let sim_start = target.sim_now();
        let host_start = self.host_now();
        let out = f(target);
        self.record(name, host_start, sim_start, target.sim_now());
        out
    }

    /// Record a call timed by the caller (for calls that create the
    /// clock they run on, such as building a device).
    pub fn record(&mut self, name: &'static str, host_start: u64, sim_start: u64, sim_end: u64) {
        let host_end = self.host_now();
        let sim_ns = sim_end.saturating_sub(sim_start);
        if self.counting {
            let agg = self.layers.entry(name).or_default();
            agg.calls += 1;
            agg.host_ns += host_end - host_start;
            agg.sim_ns += sim_ns;
        }
        self.attributed += sim_ns;
        if self.recording {
            self.spans.push(Span {
                name,
                op: self.op_id,
                parent: self.op_span,
                host_start,
                host_end,
                sim_start,
                sim_end,
            });
        }
    }

    /// Host ns since the meter was created (start stamp for
    /// [`Meter::record`]).
    #[must_use]
    pub fn stamp(&self) -> u64 {
        self.host_now()
    }

    /// Advance `clock` on the benchmark's own account (modelled work of
    /// the operation itself, outside any layer).
    pub fn advance(&mut self, clock: &mut SimClock, ns: u64) {
        clock.advance(ns);
        self.attributed += ns;
        self.bench_advance_ns += ns;
    }

    /// Open operation `op` at simulated time `sim_now`.
    pub fn begin_op(&mut self, op: u64, sim_now: u64) {
        self.op_id = op;
        self.op_start_sim = sim_now;
        let host = self.host_now();
        self.op_span = self.recording.then(|| {
            self.spans.push(Span {
                name: "bench.op",
                op,
                parent: None,
                host_start: host,
                host_end: host,
                sim_start: sim_now,
                sim_end: sim_now,
            });
            self.spans.len() - 1
        });
    }

    /// Close the open operation at simulated time `sim_now`; returns the
    /// simulated ns it took.
    pub fn end_op(&mut self, sim_now: u64) -> u64 {
        let sim_ns = sim_now.saturating_sub(self.op_start_sim);
        if let Some(i) = self.op_span.take() {
            self.spans[i].host_end = self.host_now();
            self.spans[i].sim_end = sim_now;
        }
        sim_ns
    }

    /// Simulated ns accounted for by calls and benchmark advances.
    #[must_use]
    pub fn total_attributed(&self) -> u64 {
        self.attributed
    }

    /// Charge a clock delta no call or advance accounts for.
    pub fn note_unattributed(&mut self, ns: u64) {
        self.unattributed_ns += ns;
    }

    /// Simulated ns no call or benchmark advance accounts for.
    #[must_use]
    pub fn unattributed_ns(&self) -> u64 {
        self.unattributed_ns
    }

    /// Simulated ns the benchmark itself charged.
    #[must_use]
    pub fn bench_advance_ns(&self) -> u64 {
        self.bench_advance_ns
    }

    /// Per-layer aggregates over the deterministic prefix.
    #[must_use]
    pub fn layers(&self) -> &BTreeMap<&'static str, Agg> {
        &self.layers
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Host self time per span name: each span's duration minus the part
    /// its children cover, summed by name, with the total duration.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.host_end - s.host_start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.host_end - s.host_start;
            let e = out.entry(s.name).or_default();
            e.0 += total.saturating_sub(child);
            e.1 += total;
        }
        out
    }
}

/// Write every span as one tab-separated line.
///
/// # Errors
///
/// I/O errors creating or writing the file.
pub fn write_spans(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "id\tparent\top\tname\thost_start_ns\thost_end_ns\tsim_start_ns\tsim_end_ns"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.op, s.name, s.host_start, s.host_end, s.sim_start, s.sim_end
        )?;
    }
    w.flush()
}
