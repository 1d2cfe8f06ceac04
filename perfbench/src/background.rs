//! `locked_background`: background apps running on a locked device,
//! paging through a small locked-L2 slot budget, one burst of app ops
//! per op.
//!
//! The pager's single-page page-in/evict through AES On SoC does the
//! work: the path that bulk batching, readahead and the pipeline all
//! bypass. The two apps are alpine and xmms2 as the workloads crate's
//! background catalog (Figs 6–8) defines them: hot and streamed pages,
//! stream cadence and in-kernel work per op. alpine touches a hot set
//! larger than the slot budget at random (the pager thrashes); xmms2
//! streams through megabytes of data between touches of a tiny hot set.
//! Paper-default configuration: CBC, integrity at its default.

use crate::meter::{Meter, SimClocked};
use crate::{counters, stats, Counters, Params, Rec, Workload};
use sentry_core::{Sentry, SentryConfig};
use sentry_kernel::{Kernel, Pid};
use sentry_soc::rng::DetRng;
use sentry_soc::{Platform, Soc, SocConfig};
use sentry_workloads::{background_catalog, BackgroundSpec};

const PAGE: u64 = 4096;
/// Bytes each op reads or writes.
const LINE: usize = 64;
/// Background ops per benchmark op. One background op's sim latency is
/// the app's fixed work plus a hit or a fault, so its order statistics
/// land on the same plateau for every seed; a burst sums enough of them
/// to vary.
const BURST: u64 = 16;

struct Shape {
    /// On-SoC page slots of the pager (256 KiB of locked L2 less the key
    /// and AES state pages in the full shape).
    slots: usize,
    /// Divisor of the catalog's hot and streamed page counts.
    scale: u64,
    /// Untimed warm-up bursts.
    warmup: u64,
    /// Bursts in the deterministic prefix.
    prefix: u64,
}

const FULL: Shape = Shape {
    slots: 62,
    scale: 1,
    warmup: 25,
    prefix: 2000,
};

const TINY: Shape = Shape {
    slots: 6,
    scale: 10,
    warmup: 1,
    prefix: 8,
};

struct App {
    pid: Pid,
    /// The app's catalog entry, page counts scaled to the shape.
    spec: BackgroundSpec,
    /// The app's own ops so far (its stream cadence counts these).
    ops: u64,
    next_stream: u64,
    shadow: Vec<u8>,
}

/// The workload's state.
pub struct Background {
    s: Sentry,
    apps: [App; 2],
    rng: DetRng,
    shape: &'static Shape,
    /// Page accesses made while locked (the slot hit ratio's base).
    accesses: u64,
}

impl Background {
    /// Build the device, populate both apps, lock, run the warm-up.
    ///
    /// # Errors
    ///
    /// Any layer error while building or warming up.
    pub fn setup(p: &Params) -> Result<Self, String> {
        let shape = if p.tiny { &TINY } else { &FULL };
        let soc = Soc::new(SocConfig::new(Platform::Tegra3).with_dram_size(128 << 20));
        let config = SentryConfig::tegra3_locked_l2(2).with_slot_limit(shape.slots);
        let mut s = Sentry::new(Kernel::new(soc), config).map_err(|e| e.to_string())?;
        let mut rng = DetRng::new(p.seed ^ 0x00BA_C60D);
        let mut app = |name: &str| {
            let mut spec = background_catalog()
                .into_iter()
                .find(|spec| spec.name == name)
                .ok_or_else(|| format!("{name} is not in the background catalog"))?;
            spec.hot_pages = spec.hot_pages.div_ceil(shape.scale);
            spec.stream_pages = spec.stream_pages.div_ceil(shape.scale);
            let pid = s.kernel.spawn(name);
            let pages = spec.hot_pages + spec.stream_pages;
            let mut shadow = vec![0u8; usize::try_from(pages * PAGE).expect("fits")];
            rng.fill(&mut shadow);
            s.write(pid, 0, &shadow).map_err(|e| e.to_string())?;
            s.mark_sensitive(pid).map_err(|e| e.to_string())?;
            Ok::<_, String>(App {
                pid,
                spec,
                ops: 0,
                next_stream: 0,
                shadow,
            })
        };
        let alpine = app("alpine")?;
        let xmms = app("xmms2")?;
        s.on_lock().map_err(|e| e.to_string())?;
        let mut w = Background {
            s,
            apps: [alpine, xmms],
            rng,
            shape,
            accesses: 0,
        };
        let mut meter = Meter::default();
        let mut rec = Rec::default();
        for k in 0..shape.warmup {
            w.op(k, &mut meter, &mut rec)?;
        }
        Ok(w)
    }

    /// One background op of a burst: the app's own work, one access,
    /// the shadow check of a read.
    fn bg_op(&mut self, m: &mut Meter, rec: &mut Rec) -> Result<(), String> {
        // Two ops in three are alpine's.
        let a = usize::from(self.rng.next_below(3) == 2);
        let app = &mut self.apps[a];
        let spec = app.spec;
        // One in `stream_every` of the app's ops touches the stream.
        let streams = spec.stream_pages > 0
            && spec.stream_every > 0
            && app.ops.is_multiple_of(u64::from(spec.stream_every));
        app.ops += 1;
        let vpn = if streams {
            let v = spec.hot_pages + app.next_stream;
            app.next_stream = (app.next_stream + 1) % spec.stream_pages;
            v
        } else {
            self.rng.next_below(spec.hot_pages)
        };
        let write = self.rng.next_below(8) == 0;
        let off = vpn * PAGE + self.rng.next_below(PAGE / LINE as u64) * LINE as u64;
        let at = usize::try_from(off).expect("fits");
        let pid = app.pid;
        let mut buf = [0u8; LINE];
        if write {
            self.rng.fill(&mut buf);
        }
        let t0 = self.s.sim_now();
        m.advance(&mut self.s.kernel.soc.clock, spec.base_op_ns);
        self.accesses += 1;
        if write {
            m.call("core.lifecycle.write", &mut self.s, |s| {
                s.write(pid, off, &buf)
            })
            .map_err(|e| format!("write pid {pid} vpn {vpn}: {e}"))?;
            self.apps[a].shadow[at..at + LINE].copy_from_slice(&buf);
        } else {
            m.call("core.lifecycle.read", &mut self.s, |s| {
                s.read(pid, off, &mut buf)
            })
            .map_err(|e| format!("read pid {pid} vpn {vpn}: {e}"))?;
        }
        rec.sample("bg_op_sim_us", self.s.sim_now() - t0);
        if !write {
            rec.returned(&buf);
            if buf[..] != self.apps[a].shadow[at..at + LINE] {
                return Err(format!("pid {pid} vpn {vpn}: bytes differ from the shadow"));
            }
        }
        Ok(())
    }
}

impl Workload for Background {
    fn op(&mut self, k: u64, m: &mut Meter, rec: &mut Rec) -> Result<(), String> {
        m.begin_op(k, self.s.sim_now());
        for _ in 0..BURST {
            self.bg_op(m, rec)?;
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
        counters::add(&mut c, "core.encdram.accesses", self.accesses);
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
