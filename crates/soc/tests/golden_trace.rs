//! Golden-trace regression test for the L2/DRAM model.
//!
//! A fixed, seeded sequence of cache and DRAM operations is replayed
//! against [`Pl310`] and [`Dram`] with a recording [`BusObserver`]
//! attached, and everything observable is reduced to constants: an
//! FNV-1a hash of every bus transaction (`at_ns`, op, master, address,
//! bytes), the cache statistics, the bus counters, the simulated clock,
//! a digest of the DRAM image, and the contents of all eight ways. The
//! constants were recorded from the straightforward array-of-lines cache
//! and ordered-map DRAM; any change to how the model is stored on the
//! host must reproduce them exactly.

use sentry_soc::addr::{DRAM_BASE, PAGE_SIZE};
use sentry_soc::bus::{Bus, BusMaster, BusObserver, BusOp, BusTransaction};
use sentry_soc::cache::{CacheStats, MemPath, Pl310, LINE_SIZE, NUM_SETS, NUM_WAYS};
use sentry_soc::clock::{CostModel, SimClock};
use sentry_soc::dram::{Dram, PowerEvent, RemanenceModel};
use sentry_soc::rng::DetRng;
use std::sync::{Arc, Mutex};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental 64-bit FNV-1a.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Hashes every transaction it sees, in order.
struct TraceHasher {
    state: Mutex<(Fnv, u64)>,
}

impl TraceHasher {
    fn new() -> Self {
        TraceHasher {
            state: Mutex::new((Fnv::new(), 0)),
        }
    }

    /// `(hash, transaction count)` so far.
    fn result(&self) -> (u64, u64) {
        let st = self.state.lock().expect("trace lock poisoned");
        (st.0 .0, st.1)
    }
}

impl BusObserver for TraceHasher {
    fn observe(&self, tx: &BusTransaction) {
        let mut st = self.state.lock().expect("trace lock poisoned");
        let h = &mut st.0;
        h.u64(tx.at_ns);
        h.bytes(&[
            match tx.op {
                BusOp::Read => 0,
                BusOp::Write => 1,
            },
            match tx.master {
                BusMaster::Cache => 0,
                BusMaster::CpuUncached => 1,
                BusMaster::Dma => 2,
                BusMaster::CryptoAccel => 3,
            },
        ]);
        h.u64(tx.addr);
        h.u64(tx.data.len() as u64);
        h.bytes(&tx.data);
        st.1 += 1;
    }
}

struct Rig {
    cache: Pl310,
    dram: Dram,
    bus: Bus,
    clock: SimClock,
    costs: CostModel,
    trace: Arc<TraceHasher>,
    /// Hash of every byte the CPU read back, in order.
    reads: Fnv,
    rng: DetRng,
}

/// Working window for the random phases: 2 MiB, twice the cache, so
/// every set sees evictions.
const WINDOW: u64 = 2 * 1024 * 1024;

impl Rig {
    fn new() -> Self {
        let trace = Arc::new(TraceHasher::new());
        let mut bus = Bus::new();
        bus.attach(trace.clone());
        Rig {
            cache: Pl310::new(),
            dram: Dram::new(8 * 1024 * 1024, RemanenceModel::default(), 3),
            bus,
            clock: SimClock::new(),
            costs: CostModel::tegra3(),
            trace,
            reads: Fnv::new(),
            rng: DetRng::new(0x60_1DE7),
        }
    }

    fn with_path<T>(&mut self, f: impl FnOnce(&mut Pl310, &mut MemPath<'_>) -> T) -> T {
        let mut path = MemPath {
            dram: &mut self.dram,
            bus: &mut self.bus,
            clock: &mut self.clock,
            costs: &self.costs,
        };
        f(&mut self.cache, &mut path)
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        self.with_path(|c, p| c.write(addr, data, p));
    }

    fn read(&mut self, addr: u64, len: usize) {
        let mut buf = vec![0u8; len];
        self.with_path(|c, p| c.read(addr, &mut buf, p));
        self.reads.u64(addr);
        self.reads.bytes(&buf);
    }

    /// One random access: page-aligned pages, unaligned spans that cross
    /// lines and frames, and sub-line writes, half reads and half writes.
    fn random_access(&mut self) {
        let rng = &mut self.rng;
        let shape = rng.next_below(4);
        let (addr, len) = match shape {
            // Whole page, page aligned.
            0 => {
                let page = rng.next_below(WINDOW / PAGE_SIZE);
                (DRAM_BASE + page * PAGE_SIZE, PAGE_SIZE as usize)
            }
            // Unaligned span straddling a frame boundary.
            1 => {
                let page = 1 + rng.next_below(WINDOW / PAGE_SIZE - 1);
                let back = 1 + rng.next_below(200);
                (
                    DRAM_BASE + page * PAGE_SIZE - back,
                    (back + 1 + rng.next_below(300)) as usize,
                )
            }
            // Sub-line access inside one line.
            2 => {
                let line = rng.next_below(WINDOW / LINE_SIZE as u64);
                let off = rng.next_below(LINE_SIZE as u64 - 1);
                let len = 1 + rng.next_below(LINE_SIZE as u64 - off);
                (DRAM_BASE + line * LINE_SIZE as u64 + off, len as usize)
            }
            // Unaligned multi-line span anywhere.
            _ => (
                DRAM_BASE + rng.next_below(WINDOW - 512),
                (1 + rng.next_below(511)) as usize,
            ),
        };
        if rng.next_below(2) == 0 {
            let mut data = vec![0u8; len];
            rng.fill(&mut data);
            self.write(addr, &data);
        } else {
            self.read(addr, len);
        }
    }

    fn dram_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (addr, bytes) in self.dram.iter_frames() {
            h.u64(addr);
            h.bytes(bytes);
        }
        h.0
    }

    fn ways_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for way in 0..NUM_WAYS {
            let lines = self.cache.dump_way(way);
            h.u64(lines.len() as u64);
            for (addr, data) in lines {
                h.u64(addr);
                h.bytes(&data);
            }
        }
        h.0
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Snapshot {
    trace_hash: u64,
    transactions: u64,
    reads_hash: u64,
    stats: CacheStats,
    bus: [u64; 4],
    dram_ops: [u64; 2],
    now_ns: u64,
    dram_digest: u64,
    frames: usize,
    ways_digest_locked: u64,
    ways_digest_end: u64,
    invalidated: u64,
}

fn run_golden_sequence() -> Snapshot {
    let mut rig = Rig::new();

    // Phase 1: seeded random traffic over a window twice the cache size.
    for _ in 0..600 {
        rig.random_access();
    }

    // Phase 2: the Sentry lock sequence — flush, allocate only into
    // way 0, warm a secret, then exclude way 0 from allocation and from
    // maintenance flushes.
    rig.with_path(|c, p| c.maintenance_flush(p));
    rig.cache.set_alloc_mask(0b0000_0001);
    let secret_base = DRAM_BASE + 5 * 1024 * 1024 + 96;
    let secret: Vec<u8> = (0..2 * PAGE_SIZE as usize)
        .map(|i| (i * 7 + 3) as u8)
        .collect();
    rig.write(secret_base, &secret);
    rig.cache.set_alloc_mask(0b1111_1110);
    rig.cache.set_flush_mask(0b1111_1110);
    for _ in 0..300 {
        rig.random_access();
    }
    rig.read(secret_base + 13, 100);
    rig.with_path(|c, p| c.maintenance_flush(p));

    // Phase 3: a same-set conflict chain forcing round-robin victims
    // over the seven unlocked ways.
    let set_stride = (NUM_SETS * LINE_SIZE) as u64;
    for i in 0..(3 * NUM_WAYS as u64) {
        rig.write(DRAM_BASE + 64 + i * set_stride, &[i as u8; 5]);
        rig.read(DRAM_BASE + 64 + (i / 2) * set_stride, 3);
    }

    // Phase 4: drop resident and non-resident lines without write-back.
    let mut invalidated = 0u64;
    for i in 0..64u64 {
        let addr = if i < 32 {
            DRAM_BASE + 64 + i * set_stride + (i % LINE_SIZE as u64)
        } else {
            DRAM_BASE + (i - 32) * PAGE_SIZE + (i % LINE_SIZE as u64)
        };
        invalidated |= u64::from(rig.cache.invalidate_line(addr)) << i;
    }

    // Phase 5: no enabled way — misses go uncached, hits still serve
    // from resident lines.
    rig.cache.set_alloc_mask(0);
    for _ in 0..120 {
        rig.random_access();
    }
    rig.write(secret_base + 40, b"still-pinned");
    rig.read(secret_base, 64);
    rig.cache.set_alloc_mask(0b1111_1110);

    // Phase 6: cache disabled entirely.
    rig.cache.set_enabled(false);
    for _ in 0..80 {
        rig.random_access();
    }
    rig.cache.set_enabled(true);
    for _ in 0..100 {
        rig.random_access();
    }

    let ways_digest_locked = rig.ways_digest();

    // Phase 7: the raw full flush spills and unlocks every way.
    rig.with_path(|c, p| c.flush_all_raw(p));
    assert_eq!(rig.cache.alloc_mask(), 0xFF);
    for _ in 0..200 {
        rig.random_access();
    }
    rig.cache.set_flush_mask(0b0101_0101);
    rig.with_path(|c, p| c.maintenance_flush(p));

    let (trace_hash, transactions) = rig.trace.result();
    Snapshot {
        trace_hash,
        transactions,
        reads_hash: rig.reads.0,
        stats: rig.cache.stats(),
        bus: [
            rig.bus.reads(),
            rig.bus.writes(),
            rig.bus.bytes_read(),
            rig.bus.bytes_written(),
        ],
        dram_ops: [rig.dram.read_count(), rig.dram.write_count()],
        now_ns: rig.clock.now_ns(),
        dram_digest: rig.dram_digest(),
        frames: rig.dram.iter_frames().count(),
        ways_digest_locked,
        ways_digest_end: rig.ways_digest(),
        invalidated,
    }
}

#[test]
fn cache_and_dram_trace_matches_golden_constants() {
    let got = run_golden_sequence();
    let expected = Snapshot {
        trace_hash: 15_219_262_086_557_233_462,
        transactions: 61_088,
        reads_hash: 14_604_372_652_231_727_275,
        stats: CacheStats {
            hits: 5_318,
            misses: 42_407,
            writebacks: 18_601,
            uncached: 4_256,
        },
        bus: [40_155, 20_933, 1_328_785, 725_092],
        dram_ops: [40_155, 20_933],
        now_ns: 4_350_916,
        dram_digest: 2_712_697_925_795_868_967,
        frames: 427,
        ways_digest_locked: 5_746_194_515_497_540_809,
        ways_digest_end: 11_919_447_097_828_893_852,
        invalidated: 16_256_000,
    };
    assert_eq!(got, expected);
}

#[test]
fn hard_reset_decay_matches_golden_constants() {
    // A sparse population on a 64 MiB DRAM: scattered frames, some
    // partially written, one written twice.
    let mut dram = Dram::new(64 * 1024 * 1024, RemanenceModel::default(), 0xDECA);
    let mut rng = DetRng::new(11);
    let frames = 64 * 1024 * 1024 / PAGE_SIZE;
    for i in 0..48u64 {
        let frame = rng.next_below(frames);
        let base = DRAM_BASE + frame * PAGE_SIZE;
        let cells = 1 + rng.next_below(PAGE_SIZE / 8);
        for c in 0..cells {
            dram.write(base + c * 8, b"SENTRYOK");
        }
        if i % 5 == 0 {
            dram.write(base + 8 * (cells / 2), &[i as u8; 3]);
        }
    }
    let before = dram.count_pattern(b"SENTRYOK");
    dram.apply_power_event(PowerEvent::HardReset { seconds: 0.5 });
    let after = dram.count_pattern(b"SENTRYOK");

    let mut h = Fnv::new();
    let mut populated = 0;
    for (addr, bytes) in dram.iter_frames() {
        h.u64(addr);
        h.bytes(bytes);
        populated += 1;
    }
    assert_eq!(
        (populated, before, after, h.0),
        (46, 14_119, 2_484, 11_258_493_619_718_890_058)
    );
}
