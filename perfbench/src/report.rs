//! Metric names, derived ratios and the printed report.

use crate::stats::Quantile;
use crate::{RunResult, FAMILIES};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics gated in `BENCHMARK.json`, printed by every
/// untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("op_sim_us_p50", "us"),
    ("op_sim_us_tail", "us"),
    ("host_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Layer call sites the benchmark times; each yields `.calls`,
/// `.host_ns` and `.sim_ns`.
pub const CALL_SITES: [&str; 18] = [
    "core.lifecycle.on_lock",
    "core.lifecycle.on_unlock",
    "core.lifecycle.touch",
    "core.lifecycle.read",
    "core.lifecycle.write",
    "core.lifecycle.scheduler_tick",
    "kernel.vfs.read",
    "kernel.vfs.write",
    "workloads.fleet.build",
    "workloads.fleet.finish",
    "workloads.fleet.apply.churn",
    "workloads.fleet.apply.background",
    "workloads.fleet.apply.io_burst",
    "workloads.fleet.apply.power_cut",
    "workloads.fleet.apply.tamper",
    "workloads.fleet.apply.accel_storm",
    "workloads.fleet.apply.flaky_disk",
    "workloads.fleet.apply.mem_pressure",
];

/// Per-layer counters and ratios printed by every traced run, with
/// units, after the call-site triples.
pub const LAYER_METRICS: [(&str, &str); 72] = [
    ("core.lifecycle.new.calls", "count"),
    ("core.lifecycle.new.host_ns", "ns"),
    ("core.lifecycle.new.sim_ns", "ns"),
    ("core.lifecycle.recover.calls", "count"),
    ("core.lifecycle.on_exit.calls", "count"),
    ("core.lifecycle.lock.bytes_encrypted", "bytes"),
    ("core.lifecycle.lock.zero_drain_ns", "ns"),
    ("core.lifecycle.ondemand_faults", "count"),
    ("core.lifecycle.readahead_pages", "count"),
    ("core.lifecycle.sweep_pages", "count"),
    ("core.lifecycle.prefetch_useful_ratio", "ratio"),
    ("core.lifecycle.routed_batch_pages", "count"),
    ("core.lifecycle.routed_stall_ns", "ns"),
    ("core.lifecycle.fallback_batches", "count"),
    ("core.lifecycle.route_ratio", "ratio"),
    ("crypto.parallel.batches", "count"),
    ("crypto.parallel.parallel_batches", "count"),
    ("crypto.parallel.lane_imbalance", "ratio"),
    ("core.integrity.verified_pages", "count"),
    ("core.integrity.tags_stored", "count"),
    ("core.integrity.tags_retired", "count"),
    ("core.integrity.violations", "count"),
    ("core.encdram.faults", "count"),
    ("core.encdram.pageins", "count"),
    ("core.encdram.pageouts", "count"),
    ("core.encdram.bytes_encrypted", "bytes"),
    ("core.encdram.bytes_decrypted", "bytes"),
    ("core.encdram.slot_hit_ratio", "ratio"),
    ("soc.cache.hits", "count"),
    ("soc.cache.misses", "count"),
    ("soc.cache.writebacks", "count"),
    ("kernel.bufcache.hits", "count"),
    ("kernel.bufcache.misses", "count"),
    ("kernel.bufcache.hit_ratio", "ratio"),
    ("kernel.dmcrypt.routed_sectors", "count"),
    ("kernel.dmcrypt.inline_sectors", "count"),
    ("kernel.dmcrypt.xor_sectors", "count"),
    ("kernel.dmcrypt.accel_stall_ns", "ns"),
    ("kernel.dmcrypt.fallbacks", "count"),
    ("crypto.pipeline.precomputed", "count"),
    ("crypto.pipeline.hits", "count"),
    ("crypto.pipeline.misses", "count"),
    ("crypto.pipeline.evicted", "count"),
    ("crypto.pipeline.keystream_useful_ratio", "ratio"),
    ("soc.accel.ops", "count"),
    ("soc.accel.busy_ns", "ns"),
    ("soc.accel.stall_ns", "ns"),
    ("soc.accel.overlap_ns", "ns"),
    ("soc.accel.overlap_ratio", "ratio"),
    ("soc.accel.max_depth", "count"),
    ("soc.accel.timeouts", "count"),
    ("soc.bus.reads", "count"),
    ("soc.bus.writes", "count"),
    ("soc.bus.bytes_read", "bytes"),
    ("soc.bus.bytes_written", "bytes"),
    ("core.txn.completed", "count"),
    ("core.txn.quarantined", "count"),
    ("core.pressure.sheds", "count"),
    ("core.pressure.spills", "count"),
    ("core.pressure.spill_restores", "count"),
    ("core.pressure.reclaimed_pages", "count"),
    ("core.pressure.denied", "count"),
    ("core.pressure.high_water_bytes", "bytes"),
    ("crypto.health.trips", "count"),
    ("crypto.health.timeouts", "count"),
    ("crypto.health.fallback_crypt_bytes", "bytes"),
    ("crypto.health.time_degraded_ns", "ns"),
    ("crypto.health.disk_retry_attempts", "count"),
    ("bench.tampers_planted", "count"),
    ("bench.unattributed_sim_ns", "ns"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.op.self_host_share", "ratio"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of a run, in `BENCHMARK.json` order: the
/// call-site triples, then [`LAYER_METRICS`]. Layers a workload does not
/// reach read 0.
#[must_use]
pub fn per_layer(r: &RunResult) -> Vec<(String, &'static str, f64)> {
    let l = &r.layers;
    let g = |k: &str| l.get(k).copied().unwrap_or(0.0);
    let mut derived: BTreeMap<&str, f64> = BTreeMap::new();
    derived.insert(
        "core.lifecycle.prefetch_useful_ratio",
        ratio(
            g("core.lifecycle.prefetch_useful"),
            g("core.lifecycle.readahead_pages") + g("core.lifecycle.sweep_pages"),
        ),
    );
    derived.insert(
        "core.lifecycle.route_ratio",
        ratio(
            g("core.lifecycle.routed_batches"),
            g("core.lifecycle.routed_batches") + g("core.lifecycle.fallback_batches"),
        ),
    );
    let lanes: Vec<f64> = crate::counters::LANES
        .iter()
        .map(|k| g(k))
        .filter(|&b| b > 0.0)
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let mean = lanes.iter().sum::<f64>() / lanes.len().max(1) as f64;
    derived.insert(
        "crypto.parallel.lane_imbalance",
        ratio(lanes.iter().copied().fold(0.0, f64::max), mean),
    );
    let accesses = g("core.encdram.accesses");
    derived.insert(
        "core.encdram.slot_hit_ratio",
        if accesses > 0.0 {
            1.0 - g("core.encdram.faults") / accesses
        } else {
            0.0
        },
    );
    derived.insert(
        "kernel.bufcache.hit_ratio",
        ratio(
            g("kernel.bufcache.hits"),
            g("kernel.bufcache.hits") + g("kernel.bufcache.misses"),
        ),
    );
    derived.insert(
        "crypto.pipeline.keystream_useful_ratio",
        ratio(g("crypto.pipeline.hits"), g("crypto.pipeline.precomputed")),
    );
    derived.insert(
        "soc.accel.overlap_ratio",
        ratio(g("soc.accel.overlap_ns"), g("soc.accel.busy_ns")),
    );
    #[allow(clippy::cast_precision_loss)]
    derived.insert("bench.unattributed_sim_ns", r.unattributed_sim_ns as f64);
    derived.insert("bench.tracing_overhead", r.tracing_overhead);
    let (self_ns, total_ns) = r.self_times.get("bench.op").copied().unwrap_or((0, 0));
    #[allow(clippy::cast_precision_loss)]
    derived.insert(
        "bench.op.self_host_share",
        ratio(self_ns as f64, total_ns as f64),
    );

    let mut out = Vec::new();
    for site in CALL_SITES {
        for (field, unit) in [("calls", "count"), ("host_ns", "ns"), ("sim_ns", "ns")] {
            let name = format!("{site}.{field}");
            let v = g(&name);
            out.push((name, unit, v));
        }
    }
    for (name, unit) in LAYER_METRICS {
        let v = derived.get(name).copied().unwrap_or_else(|| g(name));
        out.push((name.to_string(), unit, v));
    }
    out
}

fn quantile(r: &RunResult, family: &str, tail: bool) -> Option<Quantile> {
    let s = r.samples.get(family)?;
    if tail {
        s.tail()
    } else {
        s.p50()
    }
}

/// The gated end-to-end metrics of a run.
#[must_use]
pub fn end_to_end(r: &RunResult) -> Vec<(&'static str, &'static str, f64)> {
    #[allow(clippy::cast_precision_loss)]
    let us = |q: Option<Quantile>| q.map_or(0.0, |q| q.ns as f64 / 1e3);
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "op_sim_us_p50" => us(quantile(r, "op_sim_us", false)),
                "op_sim_us_tail" => us(quantile(r, "op_sim_us", true)),
                "host_ops_per_s" => r.host_ops_per_s,
                "setup_s" => r.setup_s,
                _ => r.peak_rss_mib,
            };
            (name, unit, v)
        })
        .collect()
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The human-readable report: every latency family of the workload by
/// name with its unit, percentile and sample count, then the run's
/// throughput, set-up, memory, failures, digest and accounting.
#[must_use]
pub fn human(r: &RunResult) -> String {
    let mut s = String::new();
    let p = &r.params;
    let _ = writeln!(
        s,
        "# perfbench workload={} seed={} seconds={} trace={} host_cores={} op=\"{}\" \
         prefix_ops={} attempted={}",
        r.kind.name(),
        p.seed,
        p.seconds,
        u8::from(p.trace),
        r.host_cores,
        r.kind.op_unit(),
        r.prefix_ops,
        r.attempted
    );
    for (family, unit, div) in FAMILIES {
        for tail in [false, true] {
            let name = format!("{family}_{}", if tail { "tail" } else { "p50" });
            match quantile(r, family, tail) {
                #[allow(clippy::cast_precision_loss)]
                Some(q) => {
                    let _ = writeln!(
                        s,
                        "{name:<24} {:>14.3} {unit:<4} sim  (p{}, n={}, {} beyond)",
                        q.ns as f64 / div,
                        q.pct,
                        q.n,
                        q.beyond
                    );
                }
                None => {
                    let _ = writeln!(s, "{name:<24} {:>14} {unit:<4} (no such ops)", "n/a");
                }
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let frac = r.failed as f64 / r.attempted.max(1) as f64;
    let _ = writeln!(
        s,
        "{:<24} {:>14.3} 1/s  host ({} per host CPU second)",
        "host_ops_per_s",
        r.host_ops_per_s,
        r.kind.op_unit()
    );
    let _ = writeln!(
        s,
        "{:<24} {:>14.4} s    host CPU (median of {})",
        "setup_s",
        r.setup_s,
        crate::SETUPS
    );
    let _ = writeln!(s, "{:<24} {:>14.1} MiB", "peak_rss_mib", r.peak_rss_mib);
    let _ = writeln!(
        s,
        "{:<24} {:>14} ratio ({}/{})",
        "failed_op_frac", frac, r.failed, r.attempted
    );
    let _ = writeln!(s, "{:<24} {:>#18x}", "digest", r.digest);
    let _ = writeln!(
        s,
        "{:<24} {:>14} ns   (bench advances {} ns)",
        "bench.unattributed_sim_ns", r.unattributed_sim_ns, r.bench_advance_ns
    );
    for f in &r.failures {
        let _ = writeln!(s, "FAILED {f}");
    }
    if p.trace {
        let _ = writeln!(
            s,
            "# per-layer (deltas over the first {} ops)",
            r.prefix_ops
        );
        for (name, unit, v) in per_layer(r) {
            if v != 0.0 {
                let _ = writeln!(s, "{name:<48} {v:>18.4} {unit}");
            }
        }
        let _ = writeln!(s, "# host self time by span (traced blocks)");
        for (name, (self_ns, total_ns)) in &r.self_times {
            let _ = writeln!(s, "{name:<48} self {self_ns:>14} ns of {total_ns:>14} ns");
        }
    }
    s
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// end-to-end metrics (untraced) or per-layer metrics (traced).
#[must_use]
pub fn json_line(r: &RunResult) -> String {
    let metrics: Vec<String> = if r.params.trace {
        per_layer(r)
            .into_iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(v)))
            .collect()
    } else {
        end_to_end(r)
            .into_iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(v)))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}
