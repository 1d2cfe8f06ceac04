//! `encrypted_file_io`: `SimpleFs` over a CTR dm-crypt volume with the
//! read pipeline on, one burst of file ops per op.
//!
//! dm-crypt, the buffer cache, the keystream cache and the accelerator
//! queue do the work; the lifecycle sits idle (the device stays
//! unlocked, so the accelerator is awake). The dataset is four times the
//! buffer cache, so reads miss often enough to reach dm-crypt. Reads are
//! overlapped and writes stay inline, so a gain for reads that costs
//! writes shows up in the same run.

use crate::meter::{Meter, SimClocked};
use crate::{counters, stats, Counters, Params, Rec, Workload};
use sentry_core::config::PipelineConfig;
use sentry_core::PageCipherMode;
use sentry_kernel::bufcache::{Volume, VolumeCrypto, CACHE_BLOCK};
use sentry_kernel::dmcrypt::DmCrypt;
use sentry_kernel::vfs::SimpleFs;
use sentry_kernel::Kernel;
use sentry_soc::accel::AccelPowerState;
use sentry_soc::rng::DetRng;
use sentry_soc::Soc;

/// Bytes per file op.
const IO: usize = 8192;
/// File ops per benchmark op. One file op's sim latency is a sum of a
/// few fixed per-block costs, so its order statistics land on the same
/// plateau for every seed; a burst sums enough of them to vary.
const BURST: u64 = 16;

struct Shape {
    files: u64,
    file_bytes: u64,
    /// Untimed warm-up bursts.
    warmup: u64,
    /// Bursts in the deterministic prefix.
    prefix: u64,
}

const FULL: Shape = Shape {
    files: 16,
    file_bytes: 512 << 10,
    warmup: 125,
    prefix: 2000,
};

const TINY: Shape = Shape {
    files: 4,
    file_bytes: 32 << 10,
    warmup: 2,
    prefix: 12,
};

/// The storage stack the calls run against.
struct Stack {
    kernel: Kernel,
    vol: Volume,
    fs: SimpleFs,
}

impl SimClocked for Stack {
    fn sim_now(&self) -> u64 {
        self.kernel.soc.clock.now_ns()
    }
}

/// The workload's state.
pub struct FileIo {
    st: Stack,
    names: Vec<String>,
    /// The dataset as the program must hold it: file `i` at
    /// `i * file_bytes`.
    shadow: Vec<u8>,
    rng: DetRng,
    shape: &'static Shape,
    /// Current sequential run: file, next offset, reads left.
    run: Option<(usize, u64, u64)>,
}

impl FileIo {
    /// Build the volume, create and populate the files, run the warm-up.
    ///
    /// # Errors
    ///
    /// Any layer error while building or warming up.
    pub fn setup(p: &Params) -> Result<Self, String> {
        let shape = if p.tiny { &TINY } else { &FULL };
        let mut kernel = Kernel::new(Soc::tegra3_small());
        kernel
            .crypto
            .preferred_mut()
            .and_then(|e| e.set_mode(PageCipherMode::Ctr))
            .map_err(|e| e.to_string())?;
        kernel.soc.accel.state = AccelPowerState::Awake;
        let mut rng = DetRng::new(p.seed ^ 0x00F1_1E10);
        let mut key = [0u8; 16];
        rng.fill(&mut key);
        let dm = DmCrypt::with_preferred_cipher();
        dm.enable_pipeline(PipelineConfig::enabled());
        dm.set_key(&mut kernel.crypto, &mut kernel.soc, &key)
            .map_err(|e| e.to_string())?;
        let dataset = shape.files * shape.file_bytes;
        let blocks = usize::try_from(dataset).expect("fits") / CACHE_BLOCK;
        let vol = Volume::new(dataset * 2 / 512, VolumeCrypto::DmCrypt(dm), blocks / 4);
        let mut st = Stack {
            kernel,
            vol,
            fs: SimpleFs::new(),
        };
        let mut shadow = vec![0u8; usize::try_from(dataset).expect("fits")];
        rng.fill(&mut shadow);
        let names: Vec<String> = (0..shape.files).map(|i| format!("f{i:03}")).collect();
        let file_len = usize::try_from(shape.file_bytes).expect("fits");
        for (i, name) in names.iter().enumerate() {
            st.fs
                .create(&st.vol, name, shape.file_bytes)
                .map_err(|e| e.to_string())?;
            for (j, chunk) in shadow[i * file_len..(i + 1) * file_len]
                .chunks(CACHE_BLOCK)
                .enumerate()
            {
                let Stack { kernel, vol, fs } = &mut st;
                fs.write(
                    vol,
                    &mut kernel.crypto,
                    &mut kernel.soc,
                    name,
                    (j * CACHE_BLOCK) as u64,
                    chunk,
                    false,
                )
                .map_err(|e| e.to_string())?;
            }
        }
        let mut w = FileIo {
            st,
            names,
            shadow,
            rng,
            shape,
            run: None,
        };
        let mut meter = Meter::default();
        let mut rec = Rec::default();
        for k in 0..shape.warmup {
            w.op(k, &mut meter, &mut rec)?;
        }
        Ok(w)
    }

    fn dm(&self) -> Option<&DmCrypt> {
        match &self.st.vol.crypto {
            VolumeCrypto::DmCrypt(dm) => Some(dm),
            VolumeCrypto::None => None,
        }
    }

    /// One file op of a burst: the latency sample of its family, the
    /// shadow check of a read.
    fn file_op(&mut self, m: &mut Meter, rec: &mut Rec) -> Result<(), String> {
        let slots = self.shape.file_bytes / IO as u64;
        let write = self.rng.next_below(3) == 0;
        let (file, offset) = if write {
            (
                self.rng.next_below(self.shape.files),
                self.rng.next_below(slots),
            )
        } else {
            match self.run.take() {
                Some((f, slot, left)) => {
                    if left > 1 && slot + 1 < slots {
                        self.run = Some((f, slot + 1, left - 1));
                    }
                    (f as u64, slot)
                }
                None => {
                    let f = self.rng.next_below(self.shape.files);
                    let slot = self.rng.next_below(slots);
                    if self.rng.next_below(2) == 0 && slot + 1 < slots {
                        let f = usize::try_from(f).expect("fits");
                        self.run = Some((f, slot + 1, 7 + self.rng.next_below(24)));
                    }
                    (f, slot)
                }
            }
        };
        let offset = offset * IO as u64;
        let name = &self.names[usize::try_from(file).expect("fits")];
        let at = usize::try_from(file * self.shape.file_bytes + offset).expect("fits");
        let t0 = self.st.sim_now();
        if write {
            let mut data = vec![0u8; IO];
            self.rng.fill(&mut data);
            m.call("kernel.vfs.write", &mut self.st, |st| {
                st.fs.write(
                    &mut st.vol,
                    &mut st.kernel.crypto,
                    &mut st.kernel.soc,
                    name,
                    offset,
                    &data,
                    false,
                )
            })
            .map_err(|e| format!("write {name}@{offset}: {e}"))?;
            self.shadow[at..at + IO].copy_from_slice(&data);
            rec.sample("write_sim_us", self.st.sim_now() - t0);
        } else {
            let mut buf = vec![0u8; IO];
            m.call("kernel.vfs.read", &mut self.st, |st| {
                st.fs.read(
                    &mut st.vol,
                    &mut st.kernel.crypto,
                    &mut st.kernel.soc,
                    name,
                    offset,
                    &mut buf,
                    false,
                )
            })
            .map_err(|e| format!("read {name}@{offset}: {e}"))?;
            rec.sample("read_sim_us", self.st.sim_now() - t0);
            rec.returned(&buf);
            if buf[..] != self.shadow[at..at + IO] {
                return Err(format!(
                    "read {name}@{offset}: bytes differ from the shadow"
                ));
            }
        }
        Ok(())
    }
}

impl Workload for FileIo {
    fn op(&mut self, k: u64, m: &mut Meter, rec: &mut Rec) -> Result<(), String> {
        m.begin_op(k, self.st.sim_now());
        for _ in 0..BURST {
            self.file_op(m, rec)?;
        }
        let sim_ns = m.end_op(self.st.sim_now());
        rec.sample("op_sim_us", sim_ns);
        Ok(())
    }

    fn counters(&mut self) -> Counters {
        let mut c = Counters::new();
        counters::add(&mut c, "kernel.bufcache.hits", self.st.vol.cache.hits);
        counters::add(&mut c, "kernel.bufcache.misses", self.st.vol.cache.misses);
        let now = self.st.sim_now();
        if let Some(dm) = self.dm() {
            if let Some((r, ks)) = dm.pipeline_stats() {
                counters::add(&mut c, "kernel.dmcrypt.routed_sectors", r.routed_sectors);
                counters::add(&mut c, "kernel.dmcrypt.inline_sectors", r.inline_sectors);
                counters::add(&mut c, "kernel.dmcrypt.xor_sectors", r.xor_sectors);
                counters::add(&mut c, "kernel.dmcrypt.accel_stall_ns", r.accel_stall_ns);
                counters::add(&mut c, "kernel.dmcrypt.fallbacks", r.fallbacks());
                counters::add(&mut c, "crypto.pipeline.precomputed", ks.precomputed);
                counters::add(&mut c, "crypto.pipeline.hits", ks.hits);
                counters::add(&mut c, "crypto.pipeline.misses", ks.misses);
                counters::add(&mut c, "crypto.pipeline.evicted", ks.evicted);
            }
            counters::health(&dm.health_stats(now), &mut c);
        }
        counters::soc(&self.st.kernel.soc, &mut c);
        c
    }

    fn state_digest(&self) -> u64 {
        let mut d = stats::FNV_OFFSET;
        stats::fnv1a(&mut d, &self.shadow);
        d
    }

    fn sim_total(&self) -> u64 {
        self.st.sim_now()
    }

    fn prefix_ops(&self) -> u64 {
        self.shape.prefix
    }
}
