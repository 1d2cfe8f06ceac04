//! Fleet-scale experiment: N independent device stacks under a
//! heavy-traffic event stream, sharded shared-nothing, with aggregated
//! percentile metrics.
//!
//! For each fleet size (default 1k and 10k devices) the same seeded
//! traffic — lock/unlock churn, background paging, dm-crypt bursts,
//! power cuts, DRAM tampers — is replayed at 1, 2, and 4 shards. The
//! device streams are identical across shard counts (every device's
//! seeds split from the fleet master seed), so the runs differ *only*
//! in how the work is spread over workers, and the merged reports must
//! be bit-identical.
//!
//! Throughput is reported with two honesties, following
//! `exp_lock_scaling`: host events/sec is real wall clock (flat on a
//! single-core host), while sim events/sec divides fleet events by the
//! simulated makespan — the busiest shard's summed device time, i.e.
//! the modeled fleet-host with one core per shard. With `--enforce`:
//!
//! * sim events/sec at 4 shards must be ≥ 2× the 1-shard run per N;
//! * every injected fault must be accounted for: zero silent
//!   corruptions, zero device errors, every planted tamper detected,
//!   and at least one power cut and one tamper actually fired
//!   (otherwise the zero-corruption claim is vacuous);
//! * the merged report must be identical across shard counts.
//!
//! Results land in `BENCH_fleet.json`. Small-N smoke runs for CI:
//! `exp_fleet --enforce --devices 48 --events 12`.

use sentry_bench::print_table;
use sentry_workloads::fleet::{run_fleet, FleetConfig, FleetReport};

/// Enforced floor on the 1→4 shard sim-throughput scaling.
const MIN_SCALING: f64 = 2.0;

/// Shard counts swept per fleet size (first must be 1; last is the
/// scaling gate's numerator).
const SHARDS: &[usize] = &[1, 2, 4];

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One (devices, shards) run.
struct Cell {
    devices: usize,
    shards: usize,
    report: FleetReport,
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_sizes(args: &[String]) -> Vec<usize> {
    flag_value(args, "--devices").map_or_else(
        || vec![1_000, 10_000],
        |v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--devices takes integers"))
                .collect()
        },
    )
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let enforce = args.iter().any(|a| a == "--enforce");
    let sizes = parse_sizes(&args);
    let events: usize =
        flag_value(&args, "--events").map_or(24, |v| v.parse().expect("--events takes an integer"));

    let mut cells: Vec<Cell> = Vec::new();
    for &devices in &sizes {
        for &shards in SHARDS {
            let config = FleetConfig::new(devices, shards).with_events_per_device(events);
            let report = run_fleet(&config);
            cells.push(Cell {
                devices,
                shards,
                report,
            });
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let r = &c.report;
            vec![
                c.devices.to_string(),
                c.shards.to_string(),
                r.events.to_string(),
                format!("{:.0}", r.events_per_sim_sec()),
                format!("{:.0}", r.events_per_host_sec()),
                format!("{:.1}", r.unlock_percentile(0.50) as f64 / 1000.0),
                format!("{:.1}", r.unlock_percentile(0.95) as f64 / 1000.0),
                format!("{:.1}", r.unlock_percentile(0.99) as f64 / 1000.0),
                r.recoveries.to_string(),
                r.quarantined_pages.to_string(),
                r.silent_corruptions.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fleet throughput and unlock latency",
        &[
            "Devices",
            "Shards",
            "Events",
            "Ev/s (sim)",
            "Ev/s (host)",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "Recoveries",
            "Quarantined",
            "Silent",
        ],
        &rows,
    );

    let fault_rows: Vec<Vec<String>> = cells
        .iter()
        .filter(|c| c.shards == 1)
        .map(|c| {
            let r = &c.report;
            vec![
                c.devices.to_string(),
                r.power_cuts_fired.to_string(),
                r.recoveries.to_string(),
                r.recovered_entries.to_string(),
                format!("{}/{}", r.tampers_detected, r.tampers_planted),
                r.quarantined_pages.to_string(),
                r.device_errors.to_string(),
                format!("{:.1}", r.setup_sim_ns as f64 / r.devices as f64 / 1000.0),
            ]
        })
        .collect();
    print_table(
        "Injected faults and per-device setup (1-shard runs)",
        &[
            "Devices",
            "Cuts fired",
            "Recoveries",
            "Rolled fwd",
            "Tampers det/planted",
            "Quarantined",
            "Device errors",
            "Setup (us/dev)",
        ],
        &fault_rows,
    );

    // Per-device degradation columns for the smallest 1-shard run: the
    // devices the health governor actually pulled through hardware
    // trouble (breaker trips, CPU-fallback bytes, time degraded).
    if let Some(cell) = cells.iter().find(|c| c.shards == 1) {
        let mut degraded: Vec<_> = cell
            .report
            .degradation
            .iter()
            .filter(|&&(_, trips, fallback, _)| trips > 0 || fallback > 0)
            .collect();
        degraded.sort_by_key(|&&(_, trips, fallback, _)| std::cmp::Reverse((trips, fallback)));
        let degraded_rows: Vec<Vec<String>> = degraded
            .iter()
            .take(8)
            .map(|&&(index, trips, fallback, degraded_ns)| {
                vec![
                    index.to_string(),
                    trips.to_string(),
                    format!("{:.1}", fallback as f64 / 1024.0),
                    format!("{:.1}", degraded_ns as f64 / 1000.0),
                ]
            })
            .collect();
        if !degraded_rows.is_empty() {
            print_table(
                &format!(
                    "Degraded devices ({} of {} — top 8 by trips, {} devices/1 shard)",
                    degraded.len(),
                    cell.report.devices,
                    cell.devices
                ),
                &["Device", "Trips", "Fallback KiB", "Degraded (us)"],
                &degraded_rows,
            );
        }
    }

    // Per-device pressure columns for the smallest 1-shard run: the
    // devices the pressure governor actually squeezed (memory-pressure
    // chaos events — sheds, encrypted spills, typed denials).
    if let Some(cell) = cells.iter().find(|c| c.shards == 1) {
        let mut pressured: Vec<_> = cell
            .report
            .pressure_columns
            .iter()
            .filter(|&&(_, sheds, spills, denied)| sheds > 0 || spills > 0 || denied > 0)
            .collect();
        pressured
            .sort_by_key(|&&(_, sheds, spills, denied)| std::cmp::Reverse((spills, sheds, denied)));
        let pressure_rows: Vec<Vec<String>> = pressured
            .iter()
            .take(8)
            .map(|&&(index, sheds, spills, denied)| {
                vec![
                    index.to_string(),
                    sheds.to_string(),
                    spills.to_string(),
                    denied.to_string(),
                ]
            })
            .collect();
        if !pressure_rows.is_empty() {
            print_table(
                &format!(
                    "Pressured devices ({} of {} — top 8 by spills, {} devices/1 shard)",
                    pressured.len(),
                    cell.report.devices,
                    cell.devices
                ),
                &["Device", "Sheds", "Spills", "Denied"],
                &pressure_rows,
            );
        }
    }

    // Scaling per fleet size: last shard count vs the 1-shard baseline.
    let mut scalings: Vec<(usize, f64, f64)> = Vec::new();
    for &devices in &sizes {
        let base = cells
            .iter()
            .find(|c| c.devices == devices && c.shards == SHARDS[0])
            .expect("baseline cell");
        let top = cells
            .iter()
            .find(|c| c.devices == devices && c.shards == *SHARDS.last().expect("shards"))
            .expect("top cell");
        let sim = top.report.events_per_sim_sec() / base.report.events_per_sim_sec();
        let host = top.report.events_per_host_sec() / base.report.events_per_host_sec();
        scalings.push((devices, sim, host));
    }
    let scale_rows: Vec<Vec<String>> = scalings
        .iter()
        .map(|(devices, sim, host)| {
            vec![
                devices.to_string(),
                format!("{}→{}", SHARDS[0], SHARDS.last().expect("shards")),
                format!("{sim:.2}x"),
                format!("{host:.2}x"),
            ]
        })
        .collect();
    print_table(
        "Shard scaling (events/sec)",
        &["Devices", "Shards", "Sim scaling", "Host scaling"],
        &scale_rows,
    );

    if host_cores() == 1 {
        println!(
            "\nnote: single host core — every shard shares one lane, so host scaling \
             is pinned at ~1.0 by construction; sim scaling models the fleet host's \
             cores (one per shard), like exp_lock_scaling's sim_speedup"
        );
    }

    let cell_json: Vec<String> = cells
        .iter()
        .map(|c| {
            let r = &c.report;
            format!(
                "    {{\"devices\": {}, \"shards\": {}, \"events\": {}, \
                 \"events_per_sim_sec\": {:.1}, \"events_per_host_sec\": {:.1}, \
                 \"unlock_p50_ns\": {}, \"unlock_p95_ns\": {}, \"unlock_p99_ns\": {}, \
                 \"unlock_mean_ns\": {:.1}, \"unlock_max_ns\": {}, \"unlocks\": {}, \
                 \"locks\": {}, \"power_cuts_fired\": {}, \"recoveries\": {}, \
                 \"recovered_entries\": {}, \"tampers_planted\": {}, \
                 \"tampers_detected\": {}, \"quarantined_pages\": {}, \
                 \"silent_corruptions\": {}, \"device_errors\": {}, \
                 \"shard_panics\": {}, \"io_bytes\": {}, \"sim_makespan_ns\": {}, \
                 \"sim_busy_ns\": {}, \"setup_sim_ns\": {}, \"host_elapsed_ns\": {}, \
                 \"accel_storms\": {}, \"flaky_disk_intervals\": {}, \
                 \"breaker_trips\": {}, \"watchdog_timeouts\": {}, \
                 \"fallback_crypt_bytes\": {}, \"time_degraded_ns\": {}, \
                 \"disk_retries_recovered\": {}, \"pressure_events\": {}, \
                 \"exit_reclaimed_pages\": {}, \"pressure_sheds\": {}, \
                 \"pressure_spills\": {}, \"pressure_restores\": {}, \
                 \"pressure_denied\": {}, \"pressure_high_water_bytes\": {}}}",
                c.devices,
                c.shards,
                r.events,
                r.events_per_sim_sec(),
                r.events_per_host_sec(),
                r.unlock_percentile(0.50),
                r.unlock_percentile(0.95),
                r.unlock_percentile(0.99),
                r.unlock_mean_ns(),
                r.unlock_max_ns(),
                r.unlocks,
                r.locks,
                r.power_cuts_fired,
                r.recoveries,
                r.recovered_entries,
                r.tampers_planted,
                r.tampers_detected,
                r.quarantined_pages,
                r.silent_corruptions,
                r.device_errors,
                r.shard_panics,
                r.io_bytes,
                r.sim_makespan_ns,
                r.sim_busy_ns,
                r.setup_sim_ns,
                r.host_elapsed_ns,
                r.accel_storms,
                r.flaky_disk_intervals,
                r.health.trips,
                r.health.timeouts,
                r.health.fallback_crypt_bytes,
                r.health.time_degraded_ns,
                r.health.disk.recovered,
                r.pressure_events,
                r.exit_reclaimed_pages,
                r.pressure.sheds,
                r.pressure.spills,
                r.pressure.spill_restores,
                r.pressure.denied,
                r.pressure.high_water_bytes,
            )
        })
        .collect();
    let scaling_json: Vec<String> = scalings
        .iter()
        .map(|(devices, sim, host)| {
            format!(
                "    {{\"devices\": {devices}, \"sim_scaling\": {sim:.3}, \
                 \"host_scaling\": {host:.3}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"fleet\",\n  \"min_scaling\": {MIN_SCALING:.1},\n  \
         \"events_per_device\": {events},\n  \"host_cores\": {},\n  \"cells\": [\n{}\n  ],\n  \
         \"scaling\": [\n{}\n  ]\n}}\n",
        host_cores(),
        cell_json.join(",\n"),
        scaling_json.join(",\n"),
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("\nwrote BENCH_fleet.json");

    if enforce {
        let mut failed = false;
        for c in &cells {
            let r = &c.report;
            let name = format!("{} devices / {} shards", c.devices, c.shards);
            if r.silent_corruptions != 0 {
                eprintln!(
                    "FAIL [{name}]: {} reads returned wrong bytes without an error",
                    r.silent_corruptions
                );
                failed = true;
            }
            if r.device_errors != 0 || r.shard_panics != 0 {
                eprintln!(
                    "FAIL [{name}]: {} device errors, {} shard panics",
                    r.device_errors, r.shard_panics
                );
                failed = true;
            }
            if r.tampers_detected != r.tampers_planted {
                eprintln!(
                    "FAIL [{name}]: only {}/{} planted tampers were detected",
                    r.tampers_detected, r.tampers_planted
                );
                failed = true;
            }
            if r.power_cuts_fired == 0 || r.tampers_planted == 0 {
                eprintln!(
                    "FAIL [{name}]: no faults landed ({} cuts, {} tampers) — the \
                     zero-corruption claim is vacuous",
                    r.power_cuts_fired, r.tampers_planted
                );
                failed = true;
            }
        }
        // Same N ⇒ identical merged report, whatever the shard count.
        for &devices in &sizes {
            let group: Vec<&Cell> = cells.iter().filter(|c| c.devices == devices).collect();
            for pair in group.windows(2) {
                if pair[0].report.digests != pair[1].report.digests {
                    eprintln!(
                        "FAIL [{devices} devices]: end-state digests differ between \
                         {} and {} shards — sharding changed device behaviour",
                        pair[0].shards, pair[1].shards
                    );
                    failed = true;
                }
                if pair[0].report.degradation != pair[1].report.degradation
                    || pair[0].report.health != pair[1].report.health
                {
                    eprintln!(
                        "FAIL [{devices} devices]: degradation columns differ between \
                         {} and {} shards — health accounting is shard-dependent",
                        pair[0].shards, pair[1].shards
                    );
                    failed = true;
                }
                if pair[0].report.unlock_ns != pair[1].report.unlock_ns {
                    eprintln!(
                        "FAIL [{devices} devices]: unlock latency samples differ between \
                         {} and {} shards — latency accounting is shard-dependent",
                        pair[0].shards, pair[1].shards
                    );
                    failed = true;
                }
                if pair[0].report.pressure_columns != pair[1].report.pressure_columns
                    || pair[0].report.pressure != pair[1].report.pressure
                {
                    eprintln!(
                        "FAIL [{devices} devices]: pressure columns differ between \
                         {} and {} shards — pressure accounting is shard-dependent",
                        pair[0].shards, pair[1].shards
                    );
                    failed = true;
                }
            }
        }
        for (devices, sim, _host) in &scalings {
            if *sim < MIN_SCALING {
                eprintln!(
                    "FAIL [{devices} devices]: sim scaling {sim:.2}x below \
                     {MIN_SCALING:.1}x going 1→{} shards",
                    SHARDS.last().expect("shards")
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        let worst = scalings
            .iter()
            .map(|(_, sim, _)| *sim)
            .fold(f64::INFINITY, f64::min);
        println!(
            "enforce: worst sim scaling {worst:.2}x >= {MIN_SCALING:.1}x, all faults \
             detected, zero silent corruptions, reports shard-count invariant"
        );
    }
}
