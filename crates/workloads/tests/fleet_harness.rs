//! Fleet-harness correctness: the N=1 fleet is byte- and
//! stats-identical to driving the same device directly with the same
//! event sequence, the merged report is shard-count invariant, and the
//! unlock percentiles are exact nearest-rank order statistics.

use proptest::prelude::*;
use sentry_workloads::fleet::{
    event_stream, nearest_rank, run_device, run_fleet, Device, FleetConfig, FleetReport,
};

fn config(master_seed: u64, events: usize) -> FleetConfig {
    FleetConfig::new(1, 1)
        .with_master_seed(master_seed)
        .with_events_per_device(events)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// An N=1 fleet run equals driving the same `Sentry` directly: the
    /// event stream is regenerated from `(master_seed, 0)`, applied
    /// event by event to a hand-built `Device`, and every deterministic
    /// field of the outcome — including the end-state digest over the
    /// device's plaintext pages — must match the fleet's merged report.
    #[test]
    fn n1_fleet_is_identical_to_direct_drive(
        master_seed in any::<u64>(),
        events in 4usize..24,
    ) {
        let cfg = config(master_seed, events);

        // The fleet run.
        let fleet = run_fleet(&cfg);
        prop_assert_eq!(fleet.devices, 1);
        prop_assert_eq!(fleet.device_errors, 0);
        prop_assert_eq!(fleet.shard_panics, 0);

        // The same Sentry, driven directly.
        let stream = event_stream(&cfg, 0);
        prop_assert_eq!(stream.len(), events);
        let mut device = Device::build(&cfg, 0).expect("device build");
        for event in &stream {
            device.apply(event).expect("event apply");
        }
        let direct = device.finish().expect("device finish");

        // Stats-identical.
        prop_assert_eq!(fleet.events, direct.events);
        prop_assert_eq!(fleet.locks, direct.locks);
        prop_assert_eq!(fleet.unlocks, direct.unlocks);
        let mut direct_samples = direct.unlock_ns.clone();
        direct_samples.sort_unstable();
        prop_assert_eq!(&fleet.unlock_ns, &direct_samples);
        prop_assert_eq!(fleet.power_cuts_fired, direct.power_cuts_fired);
        prop_assert_eq!(fleet.recoveries, direct.recoveries);
        prop_assert_eq!(fleet.tampers_planted, direct.tampers_planted);
        prop_assert_eq!(fleet.tampers_detected, direct.tampers_detected);
        prop_assert_eq!(fleet.quarantined_pages, direct.quarantined_pages);
        prop_assert_eq!(fleet.silent_corruptions, 0);
        prop_assert_eq!(direct.silent_corruptions, 0);
        prop_assert_eq!(fleet.io_bytes, direct.io_bytes);
        prop_assert_eq!(fleet.accel_storms, direct.accel_storms);
        prop_assert_eq!(fleet.flaky_disk_intervals, direct.flaky_disk_intervals);
        prop_assert_eq!(&fleet.health, &direct.health);
        prop_assert_eq!(fleet.sim_busy_ns, direct.sim_ns);
        prop_assert_eq!(fleet.setup_sim_ns, direct.setup_sim_ns);

        // Byte-identical end state.
        prop_assert_eq!(&fleet.digests[..], &[(0u64, direct.digest)][..]);

        // And the standalone-replay entry point is the same function.
        let replay = run_device(&cfg, 0).expect("standalone replay");
        prop_assert_eq!(replay, direct);
    }

    /// The merged fleet report does not depend on the shard count.
    #[test]
    fn report_is_shard_count_invariant(
        master_seed in any::<u64>(),
        shards in 2usize..6,
    ) {
        let base = FleetConfig::new(8, 1)
            .with_master_seed(master_seed)
            .with_events_per_device(10);
        let one = run_fleet(&base);
        let many = run_fleet(&base.clone().with_shards(shards));
        prop_assert_eq!(&one.digests, &many.digests);
        prop_assert_eq!(&one.unlock_ns, &many.unlock_ns);
        prop_assert_eq!(one.events, many.events);
        prop_assert_eq!(one.sim_busy_ns, many.sim_busy_ns);
        prop_assert_eq!(one.recoveries, many.recoveries);
        prop_assert_eq!(one.quarantined_pages, many.quarantined_pages);
        // Degradation accounting (breaker trips, fallback bytes,
        // time-in-degraded per device) is part of the invariant report.
        prop_assert_eq!(&one.health, &many.health);
        prop_assert_eq!(&one.degradation, &many.degradation);
        prop_assert_eq!(one.accel_storms, many.accel_storms);
        prop_assert_eq!(one.flaky_disk_intervals, many.flaky_disk_intervals);
        // So is pressure accounting (the `exp_fleet --enforce` gate
        // checks the same columns).
        prop_assert_eq!(&one.pressure, &many.pressure);
        prop_assert_eq!(&one.pressure_columns, &many.pressure_columns);
    }
}

#[test]
fn nearest_rank_is_exact() {
    let samples: Vec<u64> = (1..=10).collect();
    assert_eq!(nearest_rank(&samples, 0.0), 1); // rank clamps to 1
    assert_eq!(nearest_rank(&samples, 0.10), 1);
    assert_eq!(nearest_rank(&samples, 0.50), 5);
    assert_eq!(nearest_rank(&samples, 0.90), 9);
    assert_eq!(nearest_rank(&samples, 1.0), 10);
}

#[test]
fn empty_samples_report_zero() {
    assert_eq!(nearest_rank(&[], 0.5), 0);
    let report = FleetReport::default();
    assert_eq!(report.unlock_percentile(0.99), 0);
    assert_eq!(report.unlock_mean_ns(), 0.0);
    assert_eq!(report.unlock_max_ns(), 0);
}

#[test]
fn report_latency_is_computed_from_the_samples() {
    let report = FleetReport {
        unlock_ns: (1..=10).collect(),
        ..FleetReport::default()
    };
    assert_eq!(report.unlock_percentile(0.50), 5);
    assert_eq!(report.unlock_percentile(0.99), 10);
    assert_eq!(report.unlock_mean_ns(), 5.5);
    assert_eq!(report.unlock_max_ns(), 10);
}
