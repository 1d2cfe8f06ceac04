//! Tiny-size runs of every workload: simulated metrics, counters and
//! digests repeat exactly for one seed, and each workload does its work
//! in the layers its rationale names while the bypassed layers stay idle.

use perfbench::{report, run, Params, RunResult, WorkloadKind};

fn tiny(kind: WorkloadKind, seed: u64, trace: bool) -> RunResult {
    let params = Params {
        seed,
        seconds: 0.0,
        trace,
        tiny: true,
    };
    let r = run(kind, &params).expect("set-up succeeds");
    assert!(r.correct(), "{}: {:?}", kind.name(), r.failures);
    assert_eq!(r.unattributed_sim_ns, 0, "{}", kind.name());
    r
}

/// Everything that must repeat exactly: sample order statistics, sim
/// and count per-layer metrics (host times excluded), and the digest.
type Fingerprint = (Vec<(String, u64, u64)>, Vec<(String, f64)>, u64);

fn fingerprint(r: &RunResult) -> Fingerprint {
    let quantiles = r
        .samples
        .iter()
        .map(|(family, s)| {
            let p50 = s.p50().expect("samples").ns;
            let tail = s.tail().expect("samples").ns;
            ((*family).to_string(), p50, tail)
        })
        .collect();
    let layers = report::per_layer(r)
        .into_iter()
        .filter(|(name, _, _)| !name.ends_with(".host_ns") && !name.starts_with("bench."))
        .map(|(name, _, v)| (name, v))
        .collect();
    (quantiles, layers, r.digest)
}

fn layer(r: &RunResult, name: &str) -> f64 {
    report::per_layer(r)
        .into_iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("no per-layer metric {name}"))
        .2
}

fn check(kind: WorkloadKind, busy: &[&str], idle: &[&str]) {
    let a = tiny(kind, 7, true);
    let b = tiny(kind, 7, false);
    assert_eq!(fingerprint(&a), fingerprint(&b), "{} repeats", kind.name());
    let other = tiny(kind, 8, false);
    assert_ne!(
        a.digest,
        other.digest,
        "{}: a second seed differs",
        kind.name()
    );
    for name in busy {
        assert!(
            layer(&a, name) > 0.0,
            "{}: {name} should be > 0",
            kind.name()
        );
    }
    for name in idle {
        assert_eq!(layer(&a, name), 0.0, "{}: {name} should be 0", kind.name());
    }
}

#[test]
fn app_lock_cycle() {
    check(
        WorkloadKind::AppLockCycle,
        &[
            "core.lifecycle.on_lock.calls",
            "core.lifecycle.lock.bytes_encrypted",
            "core.lifecycle.ondemand_faults",
            "core.lifecycle.readahead_pages",
            "core.lifecycle.sweep_pages",
            "core.lifecycle.routed_batch_pages",
            "crypto.parallel.parallel_batches",
            "core.integrity.verified_pages",
            "soc.accel.ops",
        ],
        &[
            "core.encdram.pageins",
            "crypto.pipeline.precomputed",
            "kernel.vfs.read.calls",
        ],
    );
}

#[test]
fn encrypted_file_io() {
    check(
        WorkloadKind::EncryptedFileIo,
        &[
            "kernel.vfs.read.calls",
            "kernel.vfs.write.calls",
            "kernel.bufcache.hits",
            "kernel.bufcache.misses",
            "kernel.dmcrypt.routed_sectors",
            "kernel.dmcrypt.xor_sectors",
            "crypto.pipeline.precomputed",
            "soc.accel.ops",
        ],
        &[
            "core.lifecycle.on_lock.calls",
            "core.encdram.pageins",
            "core.integrity.verified_pages",
        ],
    );
}

#[test]
fn locked_background() {
    check(
        WorkloadKind::LockedBackground,
        &[
            "core.lifecycle.read.calls",
            "core.encdram.faults",
            "core.encdram.pageins",
            "core.encdram.pageouts",
            "core.integrity.verified_pages",
            "soc.cache.hits",
        ],
        &[
            "core.lifecycle.on_lock.calls",
            "crypto.pipeline.precomputed",
            "kernel.vfs.read.calls",
            "soc.accel.ops",
        ],
    );
}

#[test]
fn fleet_chaos() {
    check(
        WorkloadKind::FleetChaos,
        &[
            "workloads.fleet.apply.churn.calls",
            "core.lifecycle.new.calls",
            "core.lifecycle.recover.calls",
            "core.txn.completed",
            "core.pressure.spills",
            "core.encdram.pageins",
            "soc.accel.timeouts",
            "crypto.health.trips",
        ],
        &["kernel.vfs.read.calls", "core.lifecycle.on_lock.calls"],
    );
    let r = tiny(WorkloadKind::FleetChaos, 7, true);
    assert_eq!(
        layer(&r, "core.integrity.violations"),
        layer(&r, "bench.tampers_planted"),
        "every planted tamper is caught"
    );
}

#[test]
fn benchmark_json_registers_every_metric_printed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let registered = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let entry =
        |name: &str, unit: &str| format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
    let r = tiny(WorkloadKind::LockedBackground, 1, true);
    let layers = report::per_layer(&r);
    for (name, unit, _) in &layers {
        assert!(registered.contains(&entry(name, unit)), "{name} [{unit}]");
    }
    for (name, unit) in report::END_TO_END {
        assert!(registered.contains(&entry(name, unit)), "{name} [{unit}]");
    }
    let names = registered.matches("\"name\": ").count();
    let workloads = WorkloadKind::ALL.len();
    assert_eq!(names, workloads + report::END_TO_END.len() + layers.len());
}
