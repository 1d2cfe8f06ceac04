//! `app_lock_cycle`: sensitive apps locked and resumed, one cycle per op.
//!
//! Bulk page crypt on lock, the unlock transition and readahead do
//! almost all the work; dm-crypt and the pager sit idle. The resume set
//! is touched sequentially (readahead pays off), then random touches
//! interleave with scheduler ticks (readahead is mostly wasted and the
//! sweeper drains the rest), then a few pages are rewritten.

use crate::meter::{Meter, SimClocked};
use crate::{counters, stats, Counters, Params, Rec, Workload};
use sentry_core::config::{ParallelConfig, PipelineConfig, ReadaheadConfig};
use sentry_core::{PageCipherMode, Sentry, SentryConfig};
use sentry_kernel::{Kernel, Pid};
use sentry_soc::rng::DetRng;
use sentry_soc::Soc;

const PAGE: u64 = 4096;
/// Bytes each touch reads back and checks.
const LINE: usize = 64;

impl SimClocked for Sentry {
    fn sim_now(&self) -> u64 {
        self.kernel.soc.clock.now_ns()
    }
}

/// Sizes of one scale of the workload.
struct Shape {
    /// Base resident pages per app (seeded jitter of up to 1/32 added).
    apps: [u64; 3],
    /// Random touches per cycle.
    touches: u64,
    /// Random touches between scheduler ticks.
    tick_every: u64,
    /// Pages rewritten per cycle.
    rewrites: u64,
    /// Untimed warm-up cycles.
    warmup: u64,
    /// Cycles in the deterministic prefix.
    prefix: u64,
}

const FULL: Shape = Shape {
    apps: [384, 320, 256],
    touches: 96,
    tick_every: 8,
    rewrites: 4,
    warmup: 2,
    prefix: 120,
};

const TINY: Shape = Shape {
    apps: [24, 16, 12],
    touches: 12,
    tick_every: 4,
    rewrites: 2,
    warmup: 1,
    prefix: 4,
};

struct App {
    pid: Pid,
    pages: u64,
    shadow: Vec<u8>,
    touched: Vec<bool>,
}

/// The workload's state.
pub struct LockCycle {
    s: Sentry,
    apps: Vec<App>,
    rng: DetRng,
    shape: &'static Shape,
    lock_bytes: u64,
    zero_drain_ns: u64,
    prefetch_useful: u64,
}

impl LockCycle {
    /// Build the device, populate the apps and run the warm-up cycles.
    ///
    /// # Errors
    ///
    /// Any layer error while building or warming up.
    pub fn setup(p: &Params) -> Result<Self, String> {
        let shape = if p.tiny { &TINY } else { &FULL };
        let config = SentryConfig::tegra3_locked_l2(2)
            .with_cipher_mode(PageCipherMode::Xts)
            .with_readahead(ReadaheadConfig::with_cluster(8).sweep_budget(16))
            .with_parallel(ParallelConfig {
                workers: 2,
                min_batch_pages: 2,
            })
            .with_pipeline(PipelineConfig::enabled());
        let mut s =
            Sentry::new(Kernel::new(Soc::tegra3_small()), config).map_err(|e| e.to_string())?;
        let mut rng = DetRng::new(p.seed ^ 0xA11C_0C1E);
        let mut apps = Vec::new();
        for (i, base) in shape.apps.iter().enumerate() {
            let pages = base + rng.next_below(base / 32 + 1);
            let pid = s.kernel.spawn(format!("app{i}"));
            s.mark_sensitive(pid).map_err(|e| e.to_string())?;
            let mut shadow = vec![0u8; usize::try_from(pages * PAGE).expect("fits")];
            rng.fill(&mut shadow);
            s.write(pid, 0, &shadow).map_err(|e| e.to_string())?;
            apps.push(App {
                pid,
                pages,
                shadow,
                touched: vec![false; usize::try_from(pages).expect("fits")],
            });
        }
        let mut w = LockCycle {
            s,
            apps,
            rng,
            shape,
            lock_bytes: 0,
            zero_drain_ns: 0,
            prefetch_useful: 0,
        };
        let mut meter = Meter::default();
        let mut rec = Rec::default();
        for k in 0..shape.warmup {
            w.op(k, &mut meter, &mut rec)?;
        }
        Ok(w)
    }

    /// Read one line of `vpn` back and check it against the shadow.
    fn touch(&mut self, a: usize, vpn: u64, m: &mut Meter, rec: &mut Rec) -> Result<(), String> {
        let app = &mut self.apps[a];
        let (pid, slot) = (app.pid, usize::try_from(vpn).expect("fits"));
        if !app.touched[slot] {
            app.touched[slot] = true;
            let encrypted = self.s.kernel.procs[&pid]
                .page_table
                .get(vpn)
                .is_some_and(|pte| pte.encrypted);
            if !encrypted {
                self.prefetch_useful += 1;
            }
        }
        let off = vpn * PAGE + (vpn * 37 % (PAGE / LINE as u64)) * LINE as u64;
        let mut buf = [0u8; LINE];
        let faults = self.s.stats.ondemand_faults;
        let t0 = self.s.sim_now();
        m.call("core.lifecycle.touch", &mut self.s, |s| {
            s.read(pid, off, &mut buf)
        })
        .map_err(|e| format!("touch pid {pid} vpn {vpn}: {e}"))?;
        if self.s.stats.ondemand_faults != faults {
            rec.sample("fault_sim_us", self.s.sim_now() - t0);
        }
        rec.returned(&buf);
        let at = usize::try_from(off).expect("fits");
        if buf[..] != self.apps[a].shadow[at..at + LINE] {
            return Err(format!("pid {pid} vpn {vpn}: bytes differ from the shadow"));
        }
        Ok(())
    }

    /// A random page over all apps, weighted by size.
    fn random_page(&mut self) -> (usize, u64) {
        let total: u64 = self.apps.iter().map(|a| a.pages).sum();
        let mut i = self.rng.next_below(total);
        for (a, app) in self.apps.iter().enumerate() {
            if i < app.pages {
                return (a, i);
            }
            i -= app.pages;
        }
        unreachable!("index below the total page count")
    }
}

impl Workload for LockCycle {
    fn op(&mut self, k: u64, m: &mut Meter, rec: &mut Rec) -> Result<(), String> {
        m.begin_op(k, self.s.sim_now());
        let t0 = self.s.sim_now();
        let report = m
            .call("core.lifecycle.on_lock", &mut self.s, Sentry::on_lock)
            .map_err(|e| format!("on_lock: {e}"))?;
        rec.sample("lock_sim_ms", self.s.sim_now() - t0);
        self.lock_bytes += report.bytes_encrypted;
        self.zero_drain_ns += report.zero_drain_ns;

        let t0 = self.s.sim_now();
        m.call("core.lifecycle.on_unlock", &mut self.s, Sentry::on_unlock)
            .map_err(|e| format!("on_unlock: {e}"))?;
        for app in &mut self.apps {
            app.touched.fill(false);
        }
        for a in 0..self.apps.len() {
            for vpn in 0..self.apps[a].pages / 4 {
                self.touch(a, vpn, m, rec)?;
            }
        }
        rec.sample("resume_sim_ms", self.s.sim_now() - t0);

        for i in 0..self.shape.touches {
            if i % self.shape.tick_every == 0 {
                m.call(
                    "core.lifecycle.scheduler_tick",
                    &mut self.s,
                    Sentry::scheduler_tick,
                )
                .map_err(|e| format!("scheduler_tick: {e}"))?;
            }
            let (a, vpn) = self.random_page();
            self.touch(a, vpn, m, rec)?;
        }

        let mut page = vec![0u8; usize::try_from(PAGE).expect("fits")];
        for _ in 0..self.shape.rewrites {
            let (a, vpn) = self.random_page();
            self.rng.fill(&mut page);
            let pid = self.apps[a].pid;
            m.call("core.lifecycle.write", &mut self.s, |s| {
                s.write(pid, vpn * PAGE, &page)
            })
            .map_err(|e| format!("rewrite pid {pid} vpn {vpn}: {e}"))?;
            let at = usize::try_from(vpn * PAGE).expect("fits");
            self.apps[a].shadow[at..at + page.len()].copy_from_slice(&page);
        }
        let sim_ns = m.end_op(self.s.sim_now());
        rec.sample("op_sim_us", sim_ns);
        Ok(())
    }

    fn counters(&mut self) -> Counters {
        let mut c = Counters::new();
        counters::sentry(&mut self.s, &mut c);
        self.s.sync_health();
        counters::health(&self.s.stats.health, &mut c);
        counters::add(
            &mut c,
            "core.lifecycle.lock.bytes_encrypted",
            self.lock_bytes,
        );
        counters::add(
            &mut c,
            "core.lifecycle.lock.zero_drain_ns",
            self.zero_drain_ns,
        );
        counters::add(
            &mut c,
            "core.lifecycle.prefetch_useful",
            self.prefetch_useful,
        );
        c
    }

    fn state_digest(&self) -> u64 {
        let mut d = stats::FNV_OFFSET;
        for app in &self.apps {
            stats::fnv1a(&mut d, &app.shadow);
        }
        d
    }

    fn sim_total(&self) -> u64 {
        self.s.sim_now()
    }

    fn prefix_ops(&self) -> u64 {
        self.shape.prefix
    }
}
