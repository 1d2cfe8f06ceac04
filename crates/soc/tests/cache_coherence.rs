//! Property tests for the PL310 model driven directly, below the SoC
//! façade, so they can reach the cache-disabled path as well as the
//! no-enabled-way path.
//!
//! * Whatever interleaving of cached and uncached reads and writes, mask
//!   changes and flushes runs, a read returns the last bytes written to
//!   each address: no path loses a write.
//! * A line held in a locked (allocation-disabled) way never appears in a
//!   bus `Write` until the raw full flush, which spills all of them.

use proptest::collection::vec;
use proptest::prelude::*;
use sentry_soc::addr::{DRAM_BASE, PAGE_SIZE};
use sentry_soc::bus::{Bus, BusObserver, BusOp, BusTransaction};
use sentry_soc::cache::{MemPath, Pl310, ALL_WAYS, LINE_SIZE, WAY_BYTES};
use sentry_soc::clock::{CostModel, SimClock};
use sentry_soc::dram::{Dram, RemanenceModel};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Fuzzed window: twice the cache, 16 lines per set.
const WINDOW: u64 = 2 * 1024 * 1024;

#[derive(Debug, Clone)]
enum Op {
    Write {
        off: u64,
        byte: u8,
        len: u16,
    },
    Read {
        off: u64,
        len: u16,
    },
    /// Write one byte to each of the 16 window lines that share the set
    /// of `(page, line)`, forcing round-robin evictions there.
    Thrash {
        page: u64,
        line: u64,
    },
    SetAllocMask(u8),
    SetFlushMask(u8),
    MaintenanceFlush,
    FlushAllRaw,
    /// Clean every way, then turn the cache off: accesses go uncached.
    CacheOff,
    CacheOn,
}

fn span() -> impl Strategy<Value = (u64, u16)> {
    prop_oneof![
        3 => (0..WINDOW - 128, 1u16..97),
        1 => (0..WINDOW / PAGE_SIZE - 1).prop_map(|p| (p * PAGE_SIZE, PAGE_SIZE as u16)),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (span(), any::<u8>()).prop_map(|((off, len), byte)| Op::Write { off, byte, len }),
        6 => span().prop_map(|(off, len)| Op::Read { off, len }),
        2 => (0..16u64, 0..(PAGE_SIZE / LINE_SIZE as u64))
            .prop_map(|(page, line)| Op::Thrash { page, line }),
        2 => any::<u8>().prop_map(Op::SetAllocMask),
        1 => any::<u8>().prop_map(Op::SetFlushMask),
        1 => Just(Op::MaintenanceFlush),
        1 => Just(Op::FlushAllRaw),
        1 => Just(Op::CacheOff),
        1 => Just(Op::CacheOn),
    ]
}

/// Records the address of every bus write.
#[derive(Default)]
struct WriteLog(Mutex<Vec<u64>>);

impl BusObserver for WriteLog {
    fn observe(&self, tx: &BusTransaction) {
        if tx.op == BusOp::Write {
            self.0.lock().expect("log lock poisoned").push(tx.addr);
        }
    }
}

struct Rig {
    cache: Pl310,
    dram: Dram,
    bus: Bus,
    clock: SimClock,
    costs: CostModel,
}

impl Rig {
    fn new() -> Self {
        Rig {
            cache: Pl310::new(),
            dram: Dram::new(4 * 1024 * 1024, RemanenceModel::default(), 1),
            bus: Bus::new(),
            clock: SimClock::new(),
            costs: CostModel::tegra3(),
        }
    }

    fn with_path(&mut self, f: impl FnOnce(&mut Pl310, &mut MemPath<'_>)) {
        let mut path = MemPath {
            dram: &mut self.dram,
            bus: &mut self.bus,
            clock: &mut self.clock,
            costs: &self.costs,
        };
        f(&mut self.cache, &mut path);
    }
}

/// The 16 window addresses sharing the set of `(page, line)`.
fn thrash_addrs(page: u64, line: u64) -> impl Iterator<Item = u64> {
    (0..WINDOW / WAY_BYTES as u64)
        .map(move |k| k * WAY_BYTES as u64 + page * PAGE_SIZE + line * LINE_SIZE as u64)
}

fn fill(byte: u8, len: u16) -> Vec<u8> {
    (0..len).map(|i| byte.wrapping_add(i as u8)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Every read returns the last bytes written, through hits, fills,
    /// write-backs, no-enabled-way misses and the cache-off path.
    #[test]
    fn reads_return_the_last_write(ops in vec(op_strategy(), 1..150)) {
        let mut rig = Rig::new();
        let mut reference = vec![0u8; WINDOW as usize];
        for op in &ops {
            match *op {
                Op::Write { off, byte, len } => {
                    let data = fill(byte, len);
                    rig.with_path(|c, p| c.write(DRAM_BASE + off, &data, p));
                    reference[off as usize..off as usize + data.len()].copy_from_slice(&data);
                }
                Op::Read { off, len } => {
                    let mut buf = vec![0u8; len as usize];
                    rig.with_path(|c, p| c.read(DRAM_BASE + off, &mut buf, p));
                    let want = &reference[off as usize..off as usize + buf.len()];
                    prop_assert_eq!(&buf[..], want, "read at offset {}", off);
                }
                Op::Thrash { page, line } => {
                    for (i, off) in thrash_addrs(page, line).enumerate() {
                        rig.with_path(|c, p| c.write(DRAM_BASE + off, &[i as u8], p));
                        reference[off as usize] = i as u8;
                    }
                }
                Op::SetAllocMask(mask) => rig.cache.set_alloc_mask(mask),
                Op::SetFlushMask(mask) => rig.cache.set_flush_mask(mask),
                Op::MaintenanceFlush => rig.with_path(|c, p| c.maintenance_flush(p)),
                Op::FlushAllRaw => rig.with_path(|c, p| c.flush_all_raw(p)),
                Op::CacheOff => {
                    rig.cache.set_flush_mask(ALL_WAYS);
                    rig.with_path(|c, p| c.maintenance_flush(p));
                    rig.cache.set_enabled(false);
                }
                Op::CacheOn => rig.cache.set_enabled(true),
            }
        }
        // Final sweep over the whole window.
        let mut all = vec![0u8; WINDOW as usize];
        rig.with_path(|c, p| c.read(DRAM_BASE, &mut all, p));
        prop_assert!(all == reference, "final sweep differs from the last writes");
    }

    /// Lines pinned in way 0 stay off the bus under any traffic that
    /// leaves the lockdown in place, and the raw flush spills them all.
    #[test]
    fn locked_lines_reach_the_bus_only_on_raw_flush(
        ops in vec(op_strategy(), 1..120),
        secret_page in 0u64..16,
    ) {
        let mut rig = Rig::new();
        let log = Arc::new(WriteLog::default());
        rig.bus.attach(log.clone());

        // Lock sequence: flush, allocate only into way 0, warm the
        // secret page, then exclude way 0 from allocation and flushing.
        // Above the window, in the sets `Thrash` conflicts on.
        let secret = DRAM_BASE + WINDOW + secret_page * PAGE_SIZE;
        rig.with_path(|c, p| c.maintenance_flush(p));
        rig.cache.set_alloc_mask(0b0000_0001);
        rig.with_path(|c, p| c.write(secret, &[0xEE; PAGE_SIZE as usize], p));
        rig.cache.set_alloc_mask(0b1111_1110);
        rig.cache.set_flush_mask(0b1111_1110);
        let locked: BTreeSet<u64> = rig.cache.dump_way(0).iter().map(|&(a, _)| a).collect();
        prop_assert_eq!(locked.len(), PAGE_SIZE as usize / LINE_SIZE);

        for op in &ops {
            match *op {
                Op::Write { off, byte, len } => {
                    let data = fill(byte, len);
                    rig.with_path(|c, p| c.write(DRAM_BASE + off, &data, p));
                }
                Op::Read { off, len } => {
                    let mut buf = vec![0u8; len as usize];
                    rig.with_path(|c, p| c.read(DRAM_BASE + off, &mut buf, p));
                }
                Op::Thrash { page, line } => {
                    for off in thrash_addrs(page, line) {
                        rig.with_path(|c, p| c.write(DRAM_BASE + off, &[0x11], p));
                    }
                }
                // Privileged lockdown state may change, but never
                // re-enable or flush the locked way.
                Op::SetAllocMask(mask) => rig.cache.set_alloc_mask(mask & 0b1111_1110),
                Op::SetFlushMask(mask) => rig.cache.set_flush_mask(mask & 0b1111_1110),
                Op::MaintenanceFlush => rig.with_path(|c, p| c.maintenance_flush(p)),
                // Rewrite the pinned lines: hits in way 0 keep them dirty.
                Op::FlushAllRaw | Op::CacheOff | Op::CacheOn => {
                    rig.with_path(|c, p| c.write(secret + 100, b"rewritten", p));
                }
            }
        }
        let leaked = log
            .0
            .lock()
            .expect("log lock poisoned")
            .iter()
            .filter(|a| locked.contains(a))
            .count();
        prop_assert_eq!(leaked, 0, "a locked line crossed the bus");

        rig.with_path(|c, p| c.flush_all_raw(p));
        let spilled: BTreeSet<u64> = log
            .0
            .lock()
            .expect("log lock poisoned")
            .iter()
            .copied()
            .filter(|a| locked.contains(a))
            .collect();
        prop_assert_eq!(spilled, locked, "the raw flush spills every locked line");
    }
}
