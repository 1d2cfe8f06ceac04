//! `fleet_chaos`: small seeded fleet devices driven one at a time through
//! `Device::build` and `Device::apply` under the default event mix, one
//! device session per op.
//!
//! The only workload that reaches crash recovery and the transaction
//! journal, the health breaker, pressure spill and restore, and the
//! cost of `Sentry::new`. A session builds device `index`, applies its
//! seeded event stream, and finishes it (unlocked and audited against
//! the fleet's own shadow model). The op is a session, not an event,
//! because event costs are discrete: per-event order statistics land on
//! the same few values whatever the seed.

use crate::meter::{Meter, SimClocked};
use crate::{counters, stats, Counters, Params, Rec, Workload};
use sentry_core::DeviceState;
use sentry_workloads::fleet::{event_stream, Device, FleetConfig, FleetEvent};

struct Shape {
    warmup_devices: u64,
    prefix_devices: u64,
}

const FULL: Shape = Shape {
    warmup_devices: 8,
    prefix_devices: 800,
};

const TINY: Shape = Shape {
    warmup_devices: 1,
    prefix_devices: 12,
};

impl SimClocked for Device {
    fn sim_now(&self) -> u64 {
        self.sentry.kernel.soc.clock.now_ns()
    }
}

fn kind(e: &FleetEvent) -> &'static str {
    match e {
        FleetEvent::Churn => "workloads.fleet.apply.churn",
        FleetEvent::BackgroundRead { .. } | FleetEvent::BackgroundWrite { .. } => {
            "workloads.fleet.apply.background"
        }
        FleetEvent::IoBurst { .. } => "workloads.fleet.apply.io_burst",
        FleetEvent::PowerCut { .. } => "workloads.fleet.apply.power_cut",
        FleetEvent::Tamper { .. } => "workloads.fleet.apply.tamper",
        FleetEvent::AccelWedgeStorm { .. } => "workloads.fleet.apply.accel_storm",
        FleetEvent::FlakyDiskInterval { .. } => "workloads.fleet.apply.flaky_disk",
        FleetEvent::MemPressure { .. } => "workloads.fleet.apply.mem_pressure",
    }
}

/// The workload's state.
pub struct Fleet {
    config: FleetConfig,
    next_index: u64,
    /// Simulated ns of every finished device.
    finished_sim: u64,
    /// Counters of every finished device, summed.
    done: Counters,
    /// Digest of every finished device's end state.
    digest: u64,
    prefix: u64,
}

impl Fleet {
    /// Configure the fleet and run the warm-up sessions.
    ///
    /// # Errors
    ///
    /// Any error of a warm-up session.
    pub fn setup(p: &Params) -> Result<Self, String> {
        let shape = if p.tiny { &TINY } else { &FULL };
        let mut w = Fleet {
            config: FleetConfig::new(1, 1).with_master_seed(p.seed),
            next_index: 0,
            finished_sim: 0,
            done: Counters::new(),
            digest: stats::FNV_OFFSET,
            prefix: shape.prefix_devices,
        };
        let mut meter = Meter::default();
        let mut rec = Rec::default();
        for k in 0..shape.warmup_devices {
            w.op(k, &mut meter, &mut rec)?;
        }
        Ok(w)
    }
}

impl Workload for Fleet {
    fn op(&mut self, k: u64, m: &mut Meter, rec: &mut Rec) -> Result<(), String> {
        let index = self.next_index;
        self.next_index += 1;
        let events = event_stream(&self.config, index);
        let d = &mut self.done;

        m.begin_op(k, 0);
        let host = m.stamp();
        let mut dev =
            Device::build(&self.config, index).map_err(|e| format!("build {index}: {e}"))?;
        m.record("workloads.fleet.build", host, 0, dev.sim_now());
        let ds = dev.sentry.device_stats;
        counters::add(d, "core.lifecycle.new.calls", 1);
        counters::add(d, "core.lifecycle.new.host_ns", ds.setup_host_ns);
        counters::add(d, "core.lifecycle.new.sim_ns", ds.setup_sim_ns);
        let mut base = Counters::new();
        counters::sentry(&mut dev.sentry, &mut base);

        let mut failure = None;
        for event in &events {
            if let FleetEvent::MemPressure { spawns, .. } = event {
                counters::add(d, "core.lifecycle.on_exit.calls", *spawns);
            }
            let was_locked = dev.sentry.state() == DeviceState::Locked;
            let t0 = dev.sim_now();
            let applied = m.call(kind(event), &mut dev, |dev| dev.apply(event));
            if *event == FleetEvent::Churn {
                let family = if was_locked {
                    "resume_sim_ms"
                } else {
                    "lock_sim_ms"
                };
                rec.sample(family, dev.sim_now() - t0);
            }
            if let Err(e) = applied {
                failure.get_or_insert(format!("device {index} {event:?}: {e}"));
            }
        }

        let mut now = Counters::new();
        counters::sentry(&mut dev.sentry, &mut now);
        for (name, v) in now {
            let e = d.entry(name).or_default();
            if crate::GAUGES.contains(&name) {
                *e = e.max(v);
            } else {
                *e += v - base.get(name).copied().unwrap_or(0.0);
            }
        }
        let sim_start = dev.sim_now();
        let host = m.stamp();
        let out = dev.finish().map_err(|e| format!("finish {index}: {e}"))?;
        m.record("workloads.fleet.finish", host, sim_start, out.sim_ns);
        let sim_ns = m.end_op(out.sim_ns);
        rec.sample("op_sim_us", sim_ns);
        self.finished_sim += out.sim_ns;
        counters::add(d, "core.lifecycle.recover.calls", out.recoveries);
        counters::add(d, "core.txn.completed", out.recovered_entries);
        counters::add(
            d,
            "core.txn.quarantined",
            out.quarantined_pages.saturating_sub(out.tampers_detected),
        );
        counters::add(d, "bench.tampers_planted", out.tampers_planted);
        counters::health(&out.health, d);
        rec.returned(&out.digest.to_le_bytes());
        stats::fnv1a(&mut self.digest, &out.digest.to_le_bytes());
        if out.silent_corruptions > 0 {
            failure.get_or_insert(format!(
                "device {index}: {} silent corruptions",
                out.silent_corruptions
            ));
        }
        if out.tampers_detected < out.tampers_planted {
            failure.get_or_insert(format!(
                "device {index}: {} of {} tampers detected",
                out.tampers_detected, out.tampers_planted
            ));
        }
        failure.map_or(Ok(()), Err)
    }

    fn counters(&mut self) -> Counters {
        self.done.clone()
    }

    fn state_digest(&self) -> u64 {
        self.digest
    }

    fn sim_total(&self) -> u64 {
        self.finished_sim
    }

    fn prefix_ops(&self) -> u64 {
        self.prefix
    }
}
