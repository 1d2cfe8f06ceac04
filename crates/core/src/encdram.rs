//! The encrypted-DRAM pager (§5, Figure 1).
//!
//! While the device is locked, a sensitive background application's
//! pages live encrypted in DRAM. Every PTE has its `young` bit cleared,
//! so the first access to a page traps; the pager then:
//!
//! 1. copies the encrypted page from its DRAM frame into an on-SoC page
//!    slot (a locked L2 cache way or iRAM),
//! 2. decrypts it in place with AES On SoC,
//! 3. repoints the PTE at the on-SoC copy and sets `young`.
//!
//! When the on-SoC slots are full, the pager evicts in FIFO order: the
//! victim page is re-encrypted in place and copied back to its home
//! DRAM frame, and its PTE is re-armed to trap. Plaintext therefore
//! exists only on the SoC; DRAM (and hence every in-scope attack) sees
//! ciphertext only.

use crate::error::SentryError;
use crate::integrity::{IntegrityPlane, QuarantinedPage, VerifyOutcome};
use crate::onsoc::OnSocStore;
use crate::txn::{CommitTagger, JournalEntry, TxnJournal, TxnOp};
use sentry_kernel::fault::PageFault;
use sentry_kernel::pagetable::Backing;
use sentry_kernel::Kernel;
use sentry_soc::addr::PAGE_SIZE;

/// Per-page IV: bound to the (pid, vpn) pair so every page encrypts
/// differently under the volatile root key, and to the lock-epoch
/// counter so the *same* page never reuses an IV across successive lock
/// cycles. (The volatile key survives lock→unlock→lock — it is destroyed
/// only on power-off — so without the epoch a CBC IV would repeat and an
/// attacker comparing two lock cycles could detect unchanged pages, and
/// recover XORs of first blocks that changed.)
#[must_use]
pub fn page_iv(pid: u32, vpn: u64, epoch: u64) -> [u8; 16] {
    let mut iv = [0u8; 16];
    iv[..4].copy_from_slice(&pid.to_le_bytes());
    iv[4..12].copy_from_slice(&vpn.to_le_bytes());
    let tag = u32::from_le_bytes(*b"SNTR") ^ (epoch as u32) ^ ((epoch >> 32) as u32);
    iv[12..].copy_from_slice(&tag.to_le_bytes());
    iv
}

/// Pager statistics, consumed by the background-computation experiments
/// (Figures 6–8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Faults handled by the pager.
    pub faults: u64,
    /// Pages decrypted into on-SoC slots.
    pub pageins: u64,
    /// Pages re-encrypted back to DRAM.
    pub pageouts: u64,
    /// Bytes decrypted.
    pub bytes_decrypted: u64,
    /// Bytes encrypted.
    pub bytes_encrypted: u64,
    /// Non-empty [`Pager::evict_all`] sweeps (one per lock transition
    /// with resident pages).
    pub evict_batches: u64,
    /// Pages evicted across all such sweeps.
    pub evict_batch_pages: u64,
    /// Faults refused because the frame is quarantined (poisoned
    /// ciphertext caught by the integrity plane — never paged in).
    pub quarantine_rejects: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: u64,
    occupant: Option<(u32, u64)>,
}

/// The encrypted-DRAM pager.
#[derive(Debug, Default)]
pub struct Pager {
    slots: Vec<Slot>,
    /// FIFO of occupied slot indices, oldest first.
    resident: std::collections::VecDeque<usize>,
    /// Indices of empty slots. Invariant: `free` holds exactly the slots
    /// whose `occupant` is `None`, so acquiring a slot is O(1) instead of
    /// a scan over every slot (the fault path runs this on each trap).
    free: Vec<usize>,
    /// Page-sized bounce buffer reused by `page_in`/`evict` so the
    /// per-fault path does not allocate.
    scratch: Vec<u8>,
    slot_limit: Option<usize>,
    /// Statistics.
    pub stats: PagerStats,
}

impl Pager {
    /// A pager with an optional cap on on-SoC page slots.
    #[must_use]
    pub fn new(slot_limit: Option<usize>) -> Self {
        Pager {
            slot_limit,
            ..Pager::default()
        }
    }

    /// Number of on-SoC slots currently held.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of pages currently resident on-SoC.
    #[must_use]
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Handle a fault on an encrypted page of a sensitive background
    /// process (Figure 1's three steps, plus eviction when full).
    ///
    /// # Errors
    ///
    /// [`SentryError::OnSocExhausted`] if no slot can be obtained at
    /// all; kernel/SoC errors from the copies.
    #[allow(clippy::too_many_arguments)] // the lifecycle's full plumbing: store, kernel, journal, integrity, commit tagger
    pub fn handle_fault(
        &mut self,
        store: &mut OnSocStore,
        kernel: &mut Kernel,
        txn: &mut TxnJournal,
        integrity: &mut IntegrityPlane,
        commit: &CommitTagger,
        fault: &PageFault,
        epoch: u64,
    ) -> Result<(), SentryError> {
        kernel.soc.clock.advance(kernel.soc.costs.page_fault_ns);
        self.stats.faults += 1;

        // Inspect the faulting PTE.
        let pte = *kernel.proc(fault.pid)?.page_table.get(fault.vpn).ok_or(
            SentryError::Unresolvable {
                pid: fault.pid,
                vpn: fault.vpn,
            },
        )?;

        match pte.backing {
            Backing::OnSoc(_) => {
                // Already resident; just re-arm.
                set_young(kernel, fault.pid, fault.vpn, true)?;
                Ok(())
            }
            Backing::Dram(frame) if pte.encrypted => {
                // A quarantined frame never pages in: report its stored
                // violation instead of decrypting poisoned ciphertext.
                if let Some(err) = integrity.violation_for(frame) {
                    self.stats.quarantine_rejects += 1;
                    return Err(err);
                }
                let slot_idx = self.acquire_slot(store, kernel, txn, integrity, commit, epoch)?;
                self.page_in(
                    store, kernel, integrity, slot_idx, fault.pid, fault.vpn, frame,
                )
            }
            Backing::Dram(_) => {
                // Unencrypted page (e.g. shared with a non-sensitive
                // app): nothing to decrypt, just re-arm.
                set_young(kernel, fault.pid, fault.vpn, true)?;
                Ok(())
            }
        }
    }

    /// Obtain a free slot, locking more on-SoC storage if allowed and
    /// evicting the oldest resident page otherwise.
    fn acquire_slot(
        &mut self,
        store: &mut OnSocStore,
        kernel: &mut Kernel,
        txn: &mut TxnJournal,
        integrity: &mut IntegrityPlane,
        commit: &CommitTagger,
        epoch: u64,
    ) -> Result<usize, SentryError> {
        if let Some(i) = self.free.pop() {
            debug_assert!(self.slots[i].occupant.is_none(), "free list out of sync");
            return Ok(i);
        }
        let may_grow = self.slot_limit.is_none_or(|lim| self.slots.len() < lim);
        if may_grow {
            match store.alloc_page(&mut kernel.soc) {
                Ok(addr) => {
                    self.slots.push(Slot {
                        addr,
                        occupant: None,
                    });
                    return Ok(self.slots.len() - 1);
                }
                Err(SentryError::OnSocExhausted) => {}
                Err(e) => return Err(e),
            }
        }
        // Peek, don't pop: a kill inside `evict` must leave the victim
        // at the FIFO head so recovery (and the retried fault) still
        // agree with an uninterrupted run on who gets evicted.
        let victim = *self.resident.front().ok_or(SentryError::OnSocExhausted)?;
        self.evict(store, kernel, txn, integrity, commit, victim, epoch)?;
        self.resident.pop_front();
        // `evict` pushed the victim onto the free list; claim it back.
        let reclaimed = self.free.pop().expect("evict frees its slot");
        debug_assert_eq!(reclaimed, victim);
        Ok(reclaimed)
    }

    /// Figure 1 in reverse: encrypt the slot's page in place and copy it
    /// back to its home DRAM frame; re-arm the trap.
    ///
    /// Runs as a journaled two-phase commit: the ciphertext is computed
    /// in scratch, the intent (slot address, home frame, IV, ciphertext
    /// tag) is journaled on-SoC, and only then are the frame published
    /// and the PTE flipped. A kill anywhere in between is completed or
    /// rolled forward by [`crate::Sentry::recover`]; the slot itself is
    /// only reclaimed in the in-memory tail, after the journal closes.
    #[allow(clippy::too_many_arguments)] // same plumbing as `handle_fault`
    fn evict(
        &mut self,
        store: &mut OnSocStore,
        kernel: &mut Kernel,
        txn: &mut TxnJournal,
        integrity: &mut IntegrityPlane,
        commit: &CommitTagger,
        slot_idx: usize,
        epoch: u64,
    ) -> Result<(), SentryError> {
        let slot = self.slots[slot_idx];
        let (pid, vpn) = slot.occupant.expect("evicting an empty slot");

        self.scratch.resize(PAGE_SIZE as usize, 0);
        let page = &mut self.scratch;
        kernel.soc.mem_read(slot.addr, page.as_mut_slice())?;

        let home = {
            let pte = kernel
                .proc(pid)?
                .page_table
                .get(vpn)
                .ok_or(SentryError::Unresolvable { pid, vpn })?;
            pte.home_frame
                .ok_or(SentryError::Unresolvable { pid, vpn })?
        };

        // Encrypt in scratch (on the SoC): no DRAM mutation yet.
        let iv = page_iv(pid, vpn, epoch);
        {
            let sentry_kernel::kernel::Kernel { soc, crypto, .. } = kernel;
            crypto
                .preferred_mut()
                .map_err(SentryError::Kernel)?
                .encrypt(soc, &iv, page.as_mut_slice())
                .map_err(SentryError::Kernel)?;
        }
        // The commit tag follows the cipher mode: the final CBC block
        // (chains over the whole page, so it cannot collide between old
        // and new ciphertexts of a rewritten page the way the first
        // block does) or the commit CMAC under XTS/CTR.
        let tag = commit.tag(&iv, &self.scratch);

        // Journal the intent, then publish and flip.
        let entry = JournalEntry {
            pid,
            vpn,
            src: slot.addr,
            frame: home,
            epoch,
            iv,
            tag,
            done: false,
        };
        txn.open(
            &mut kernel.soc,
            TxnOp::Encrypt,
            epoch,
            std::slice::from_ref(&entry),
        )?;
        // The integrity tag goes on-SoC before the ciphertext is
        // visible in DRAM (no unrecorded-tamper window); idempotent on
        // a recovery replay.
        let tags = integrity.store_tags(&mut kernel.soc, store, &[(home, iv)], &self.scratch)?;
        kernel.soc.failpoint("pager.evict")?;
        kernel.soc.clock.advance(kernel.soc.costs.page_copy_ns);
        kernel.soc.mem_write(home, &self.scratch)?;

        // Read-back verify: the published frame must MAC against the
        // tag just stored. An active attacker racing the publish (or a
        // failing DRAM cell) is caught here, not at the next unlock;
        // verify_one's bounded re-reads heal a transient glitch, a
        // persistent mismatch quarantines the frame and leaves the
        // journal open for `recover()` to roll the eviction forward
        // from the still-intact on-SoC plaintext. An intact read-back
        // reuses the tag just computed instead of MACing the page again.
        if integrity.enabled() {
            let mut readback = vec![0u8; PAGE_SIZE as usize];
            kernel.soc.mem_read(home, &mut readback)?;
            if let VerifyOutcome::Mismatch { expected, got } = integrity.verify_readback(
                &mut kernel.soc,
                store,
                home,
                &iv,
                &mut readback,
                &self.scratch,
                tags[0],
            )? {
                self.stats.quarantine_rejects += 1;
                return Err(integrity.quarantine(QuarantinedPage {
                    pid,
                    vpn,
                    frame: home,
                    epoch,
                    tag_expected: expected,
                    tag_got: got,
                }));
            }
        }

        let proc = kernel.proc_mut(pid)?;
        let pte = proc
            .page_table
            .get_mut(vpn)
            .ok_or(SentryError::Unresolvable { pid, vpn })?;
        pte.backing = Backing::Dram(home);
        pte.home_frame = None;
        pte.encrypted = true;
        pte.young = false;
        pte.dirty = false;
        pte.crypt_epoch = epoch;
        proc.stats.bytes_encrypted += PAGE_SIZE;
        txn.mark_done(&mut kernel.soc, 0)?;
        txn.close(&mut kernel.soc)?;

        // In-memory tail: reclaim the slot.
        self.slots[slot_idx].occupant = None;
        self.free.push(slot_idx);
        self.stats.pageouts += 1;
        self.stats.bytes_encrypted += PAGE_SIZE;
        Ok(())
    }

    /// Figure 1 forward: copy the encrypted page on-SoC and decrypt it
    /// in place.
    #[allow(clippy::too_many_arguments)] // same plumbing as `handle_fault`
    fn page_in(
        &mut self,
        store: &mut OnSocStore,
        kernel: &mut Kernel,
        integrity: &mut IntegrityPlane,
        slot_idx: usize,
        pid: u32,
        vpn: u64,
        frame: u64,
    ) -> Result<(), SentryError> {
        // Journal-free by design: every byte this path writes lands
        // on-SoC (the slot), never in DRAM, so a kill at any step leaves
        // DRAM and the PTE exactly as they were before the fault.
        kernel.soc.failpoint("pager.pagein")?;
        let slot_addr = self.slots[slot_idx].addr;
        self.scratch.resize(PAGE_SIZE as usize, 0);
        let page = &mut self.scratch;

        // Step 1: copy the encrypted page into the on-SoC slot.
        kernel.soc.mem_read(frame, page.as_mut_slice())?;
        kernel.soc.clock.advance(kernel.soc.costs.page_copy_ns);

        // Step 2: decrypt in place, under the IV the page was actually
        // encrypted with (its PTE remembers the lock epoch used).
        let stored_epoch = kernel
            .proc(pid)?
            .page_table
            .get(vpn)
            .ok_or(SentryError::Unresolvable { pid, vpn })?
            .crypt_epoch;
        let iv = page_iv(pid, vpn, stored_epoch);

        // MAC-verify the gathered ciphertext before the cipher runs on
        // it. A mismatch quarantines the frame: the PTE is untouched,
        // the freshly acquired slot goes back to the free list, and the
        // fault reports the violation.
        if let VerifyOutcome::Mismatch { expected, got } =
            integrity.verify_one(&mut kernel.soc, store, frame, &iv, page.as_mut_slice())?
        {
            self.free.push(slot_idx);
            self.stats.quarantine_rejects += 1;
            return Err(integrity.quarantine(QuarantinedPage {
                pid,
                vpn,
                frame,
                epoch: stored_epoch,
                tag_expected: expected,
                tag_got: got,
            }));
        }
        let page = &mut self.scratch;
        let sentry_kernel::kernel::Kernel { soc, crypto, .. } = kernel;
        crypto
            .preferred_mut()
            .map_err(SentryError::Kernel)?
            .decrypt(soc, &iv, page.as_mut_slice())
            .map_err(SentryError::Kernel)?;
        soc.mem_write(slot_addr, page.as_slice())?;

        // Step 3: repoint the PTE and set young.
        let proc = kernel.proc_mut(pid)?;
        let pte = proc
            .page_table
            .get_mut(vpn)
            .ok_or(SentryError::Unresolvable { pid, vpn })?;
        pte.backing = Backing::OnSoc(slot_addr);
        pte.home_frame = Some(frame);
        pte.young = true;
        proc.stats.bytes_decrypted += PAGE_SIZE;

        self.slots[slot_idx].occupant = Some((pid, vpn));
        self.resident.push_back(slot_idx);
        self.stats.pageins += 1;
        self.stats.bytes_decrypted += PAGE_SIZE;
        Ok(())
    }

    /// Evict every resident page (Sentry's lock path runs this so all
    /// sensitive state is encrypted in DRAM before the device sleeps).
    /// Re-encryption uses `epoch` — the lock epoch of the transition
    /// driving the sweep.
    ///
    /// # Errors
    ///
    /// Propagates eviction errors.
    pub fn evict_all(
        &mut self,
        store: &mut OnSocStore,
        kernel: &mut Kernel,
        txn: &mut TxnJournal,
        integrity: &mut IntegrityPlane,
        commit: &CommitTagger,
        epoch: u64,
    ) -> Result<(), SentryError> {
        // The FIFO is *not* drained up front: a kill mid-sweep must
        // leave the not-yet-published victims resident, so recovery (and
        // a retried lock) still sees them. Slot bookkeeping happens only
        // in the in-memory tail, after every journal chunk has closed.
        let victims: Vec<usize> = self.resident.iter().copied().collect();
        if victims.is_empty() {
            return Ok(());
        }
        let n = victims.len();
        let page = PAGE_SIZE as usize;

        // Gather every victim page into one contiguous run, remembering
        // each page's IV and scatter target. The whole sweep then goes
        // through the engine as a single extent request, so a batch
        // backend streams all pages through its kernels back-to-back
        // instead of restarting per page. Byte-identical to evicting one
        // page at a time (per-page IVs make each page independent).
        let mut buf = vec![0u8; n * page];
        let mut ivs = Vec::with_capacity(n);
        let mut targets = Vec::with_capacity(n);
        for (chunk, &slot_idx) in buf.chunks_exact_mut(page).zip(&victims) {
            let slot = self.slots[slot_idx];
            let (pid, vpn) = slot.occupant.expect("evicting an empty slot");
            kernel.soc.mem_read(slot.addr, chunk)?;
            let pte = kernel
                .proc(pid)?
                .page_table
                .get(vpn)
                .ok_or(SentryError::Unresolvable { pid, vpn })?;
            let home = pte
                .home_frame
                .ok_or(SentryError::Unresolvable { pid, vpn })?;
            ivs.push(page_iv(pid, vpn, epoch));
            targets.push((pid, vpn, home));
        }

        {
            let sentry_kernel::kernel::Kernel { soc, crypto, .. } = kernel;
            crypto
                .preferred_mut()
                .map_err(SentryError::Kernel)?
                .encrypt_extent(soc, &ivs, &mut buf)
                .map_err(SentryError::Kernel)?;
            soc.clock.advance(soc.costs.page_copy_ns * n as u64);
        }

        // Every tag on-SoC before any ciphertext is published below.
        let tag_jobs: Vec<(u64, [u8; 16])> = targets
            .iter()
            .zip(&ivs)
            .map(|(&(_, _, home), &iv)| (home, iv))
            .collect();
        integrity.store_tags(&mut kernel.soc, store, &tag_jobs, &buf)?;

        // Scatter the ciphertext back to each page's home frame and
        // re-arm the traps, in journaled chunks: every publish + PTE
        // flip is covered by an open journal entry, so a kill anywhere
        // in the sweep is completed by recovery.
        let commit_tags = commit.tags(&ivs, &buf);
        let entries: Vec<JournalEntry> = (0..n)
            .map(|i| {
                let (pid, vpn, home) = targets[i];
                JournalEntry {
                    pid,
                    vpn,
                    src: self.slots[victims[i]].addr,
                    frame: home,
                    epoch,
                    iv: ivs[i],
                    tag: commit_tags[i],
                    done: false,
                }
            })
            .collect();
        txn.run_chunks(
            kernel,
            TxnOp::Encrypt,
            epoch,
            &entries,
            |kernel, i, entry| {
                let (pid, vpn) = (entry.pid, entry.vpn);
                kernel.soc.failpoint("pager.evict")?;
                kernel
                    .soc
                    .mem_write(entry.frame, &buf[i * page..(i + 1) * page])?;
                let proc = kernel.proc_mut(pid)?;
                let pte = proc
                    .page_table
                    .get_mut(vpn)
                    .ok_or(SentryError::Unresolvable { pid, vpn })?;
                pte.backing = Backing::Dram(entry.frame);
                pte.home_frame = None;
                pte.encrypted = true;
                pte.young = false;
                pte.dirty = false;
                pte.crypt_epoch = epoch;
                proc.stats.bytes_encrypted += PAGE_SIZE;
                Ok(())
            },
        )?;

        // In-memory tail: reclaim every slot at once.
        self.resident.clear();
        for &slot_idx in &victims {
            self.slots[slot_idx].occupant = None;
            self.free.push(slot_idx);
            self.stats.pageouts += 1;
            self.stats.bytes_encrypted += PAGE_SIZE;
        }
        self.stats.evict_batches += 1;
        self.stats.evict_batch_pages += n as u64;
        Ok(())
    }

    /// Post-recovery reconciliation: drop any resident slot whose
    /// occupant's PTE no longer points at it. Recovery completes
    /// interrupted evictions by flipping PTEs back to their DRAM frames;
    /// the pager's in-memory FIFO (which never reached its tail commit)
    /// is re-synchronized here from the page tables — the single source
    /// of truth.
    pub fn reconcile(&mut self, kernel: &Kernel) {
        let resident: Vec<usize> = self.resident.drain(..).collect();
        for slot_idx in resident {
            let slot = self.slots[slot_idx];
            let still_resident = slot.occupant.is_some_and(|(pid, vpn)| {
                kernel
                    .procs
                    .get(&pid)
                    .and_then(|p| p.page_table.get(vpn))
                    .is_some_and(|pte| matches!(pte.backing, Backing::OnSoc(a) if a == slot.addr))
            });
            if still_resident {
                self.resident.push_back(slot_idx);
            } else {
                self.slots[slot_idx].occupant = None;
                self.free.push(slot_idx);
            }
        }
    }

    /// Drop every resident slot owned by a dying process without
    /// writing it back: the plaintext is wiped in place and the slot
    /// returns to the free list. Called on process teardown so the
    /// pager never pins on-SoC pages for pids that no longer exist.
    ///
    /// Returns the number of slots released.
    ///
    /// # Errors
    ///
    /// Propagates wipe errors.
    pub fn drop_pid(&mut self, kernel: &mut Kernel, pid: u32) -> Result<u64, SentryError> {
        let mut dropped = 0u64;
        let resident: Vec<usize> = self.resident.drain(..).collect();
        let zero = vec![0u8; PAGE_SIZE as usize];
        for slot_idx in resident {
            if self.slots[slot_idx].occupant.is_some_and(|(p, _)| p == pid) {
                kernel.soc.mem_write(self.slots[slot_idx].addr, &zero)?;
                self.slots[slot_idx].occupant = None;
                self.free.push(slot_idx);
                dropped += 1;
            } else {
                self.resident.push_back(slot_idx);
            }
        }
        Ok(dropped)
    }

    /// Return free slots at the tail of the slot table to the on-SoC
    /// store. Slot indices are load-bearing (the FIFO and free list
    /// hold them), so only a free suffix can be shrunk — enough to
    /// relieve pressure after teardown or under a tightened budget.
    ///
    /// Returns the number of pages returned to the store.
    ///
    /// # Errors
    ///
    /// Propagates wipe errors from the store's free path.
    pub fn shrink_free_slots(
        &mut self,
        store: &mut OnSocStore,
        kernel: &mut Kernel,
    ) -> Result<u64, SentryError> {
        let mut freed = 0u64;
        while let Some(slot) = self.slots.last() {
            if slot.occupant.is_some() {
                break;
            }
            let idx = self.slots.len() - 1;
            if self.resident.contains(&idx) {
                break;
            }
            let slot = self.slots.pop().expect("checked non-empty");
            self.free.retain(|&i| i != idx);
            store.free_page(&mut kernel.soc, slot.addr)?;
            freed += 1;
        }
        Ok(freed)
    }

    /// Release all on-SoC slots back to the store (after
    /// [`Pager::evict_all`]).
    ///
    /// # Errors
    ///
    /// Propagates wipe errors.
    pub fn release_slots(
        &mut self,
        store: &mut OnSocStore,
        kernel: &mut Kernel,
    ) -> Result<(), SentryError> {
        debug_assert!(self.resident.is_empty(), "evict_all first");
        self.free.clear();
        for slot in self.slots.drain(..) {
            store.free_page(&mut kernel.soc, slot.addr)?;
        }
        Ok(())
    }
}

fn set_young(kernel: &mut Kernel, pid: u32, vpn: u64, young: bool) -> Result<(), SentryError> {
    let proc = kernel.proc_mut(pid).map_err(SentryError::Kernel)?;
    let pte = proc
        .page_table
        .get_mut(vpn)
        .ok_or(SentryError::Unresolvable { pid, vpn })?;
    pte.young = young;
    Ok(())
}
