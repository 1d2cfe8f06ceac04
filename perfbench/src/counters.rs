//! Snapshots of the layers' public stats structs, by per-layer name.

use crate::Counters;
use sentry_core::Sentry;
use sentry_soc::Soc;

/// Cumulative SoC-level counters: PL310, accelerator queue and bus.
#[allow(clippy::cast_precision_loss)]
pub fn soc(soc: &Soc, c: &mut Counters) {
    let cache = soc.cache.stats();
    add(c, "soc.cache.hits", cache.hits);
    add(c, "soc.cache.misses", cache.misses);
    add(c, "soc.cache.writebacks", cache.writebacks);
    let q = &soc.accel_queue.stats;
    add(c, "soc.accel.ops", q.ops);
    add(c, "soc.accel.busy_ns", q.busy_ns);
    add(c, "soc.accel.stall_ns", q.stall_ns);
    add(c, "soc.accel.overlap_ns", q.overlap_ns);
    let depth = c.entry("soc.accel.max_depth").or_default();
    *depth = depth.max(q.max_depth as f64);
    add(c, "soc.accel.timeouts", q.timeouts);
    add(c, "soc.bus.reads", soc.bus.reads());
    add(c, "soc.bus.writes", soc.bus.writes());
    add(c, "soc.bus.bytes_read", soc.bus.bytes_read());
    add(c, "soc.bus.bytes_written", soc.bus.bytes_written());
}

/// Cumulative Sentry counters: lifecycle, parallel engine, integrity
/// plane, pager and pressure governor, plus its SoC. Health counters
/// are added by each workload from the governors it reaches.
#[allow(clippy::cast_precision_loss)]
pub fn sentry(s: &mut Sentry, c: &mut Counters) {
    s.sync_pressure();
    let st = s.stats;
    add(c, "core.lifecycle.ondemand_faults", st.ondemand_faults);
    add(c, "core.lifecycle.readahead_pages", st.readahead_pages);
    add(c, "core.lifecycle.sweep_pages", st.sweep_pages);
    add(c, "core.lifecycle.routed_batches", st.routed_batches);
    add(
        c,
        "core.lifecycle.routed_batch_pages",
        st.routed_batch_pages,
    );
    add(c, "core.lifecycle.routed_stall_ns", st.routed_stall_ns);
    add(
        c,
        "core.lifecycle.fallback_batches",
        st.batch_fallback_down_scaled
            + st.batch_fallback_unsupported_mode
            + st.batch_fallback_below_threshold
            + st.batch_fallback_breaker_open,
    );
    add(c, "crypto.parallel.batches", s.parallel.batches);
    add(
        c,
        "crypto.parallel.parallel_batches",
        s.parallel.parallel_batches,
    );
    for (lane, bytes) in s.parallel.per_worker_bytes.iter().enumerate() {
        add(c, LANES[lane.min(LANES.len() - 1)], *bytes);
    }
    let i = s.integrity.stats;
    add(c, "core.integrity.verified_pages", i.verified_pages);
    add(c, "core.integrity.tags_stored", i.tags_stored);
    add(c, "core.integrity.tags_retired", i.tags_retired);
    add(c, "core.integrity.violations", i.violations);
    let p = s.pager.stats;
    add(c, "core.encdram.faults", p.faults);
    add(c, "core.encdram.pageins", p.pageins);
    add(c, "core.encdram.pageouts", p.pageouts);
    add(c, "core.encdram.bytes_encrypted", p.bytes_encrypted);
    add(c, "core.encdram.bytes_decrypted", p.bytes_decrypted);
    let pr = st.pressure;
    add(c, "core.pressure.sheds", pr.sheds);
    add(c, "core.pressure.spills", pr.spills);
    add(c, "core.pressure.spill_restores", pr.spill_restores);
    add(c, "core.pressure.reclaimed_pages", pr.reclaimed_pages);
    add(c, "core.pressure.denied", pr.denied);
    let hw = c.entry("core.pressure.high_water_bytes").or_default();
    *hw = hw.max(pr.high_water_bytes as f64);
    soc(&s.kernel.soc, c);
}

/// Health-governor counters.
pub fn health(h: &sentry_core::HealthStats, c: &mut Counters) {
    add(c, "crypto.health.trips", h.trips);
    add(c, "crypto.health.timeouts", h.timeouts);
    add(
        c,
        "crypto.health.fallback_crypt_bytes",
        h.fallback_crypt_bytes,
    );
    add(c, "crypto.health.time_degraded_ns", h.time_degraded_ns);
    add(c, "crypto.health.disk_retry_attempts", h.disk.attempts);
}

/// Per-lane byte loads of the parallel engine (internal names; the
/// report folds them into `crypto.parallel.lane_imbalance`).
pub const LANES: [&str; 4] = [
    "crypto.parallel.lane0_bytes",
    "crypto.parallel.lane1_bytes",
    "crypto.parallel.lane2_bytes",
    "crypto.parallel.lane3_bytes",
];

/// Add `v` to counter `name`.
#[allow(clippy::cast_precision_loss)]
pub fn add(c: &mut Counters, name: &'static str, v: u64) {
    *c.entry(name).or_default() += v as f64;
}
