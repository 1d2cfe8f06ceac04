//! dm-crypt: transparent block-level encryption.
//!
//! "At a high-level, dm-crypt makes three calls to an AES library, one to
//! set the encryption and decryption keys, and two calls to encrypt and
//! decrypt data" (§7). The module asks the kernel's Crypto API for its
//! cipher, so when Sentry registers AES On SoC at higher priority,
//! dm-crypt transparently stops leaking AES state to DRAM — no dm-crypt
//! changes needed beyond using the API.
//!
//! Per-sector IVs use the `plain64` convention (little-endian sector
//! number), as in stock Linux dm-crypt.
//!
//! On top of the paper's confidentiality-only design the mapping keeps a
//! per-sector authentication tag — CMAC over `plain64-IV ∥ ciphertext`
//! truncated to 64 bits, under a key derived from the volume key — so a
//! device (or the DMA path to it) that returns tampered or spliced
//! ciphertext is caught *before* the bytes are decrypted and handed to
//! the filesystem. Tags live in kernel memory, never on the device, and
//! sectors that were never written through this mapping pass through
//! unverified (there is nothing to compare against).

use crate::accel_route;
use crate::block::{BlockDevice, SECTOR_SIZE};
use crate::crypto_api::{CipherEngine, CryptoApi};
use crate::error::KernelError;
use sentry_crypto::mac::trunc8;
use sentry_crypto::modes::ctr_crypt_extents;
use sentry_crypto::pipeline::{ctr_keystream, xor_keystream};
use sentry_crypto::{
    Aes, BitslicedAes, Cmac, FallbackReason, HealthConfig, HealthGovernor, HealthState,
    HealthStats, KeystreamCache, KeystreamStats, PageCipherMode, PipelineConfig,
};
use sentry_soc::accel::WaitOutcome;
use sentry_soc::{Soc, SocError};
use std::cell::RefCell;
use std::collections::HashMap;

/// Keystream cache capacity, in sectors. Oldest entries are zeroized
/// and evicted first.
const KEYSTREAM_SECTORS: usize = 128;

/// How many sectors past the end of the current request the precompute
/// lanes may run ahead while a descriptor is in flight (bounded
/// lookahead keeps the on-SoC scratch footprint small).
const PRECOMPUTE_AHEAD: u64 = 64;

/// Cumulative counters for the overlapped read path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadOverlapStats {
    /// Miss extents submitted to the accelerator queue.
    pub routed_extents: u64,
    /// Sectors decrypted via queued accelerator descriptors.
    pub routed_sectors: u64,
    /// Sectors decrypted inline on the CPU engine (fallbacks).
    pub inline_sectors: u64,
    /// Sectors finished by XOR of precomputed keystream.
    pub xor_sectors: u64,
    /// Keystream sectors precomputed under the block-device wait.
    pub precomputed_under_disk: u64,
    /// Keystream sectors precomputed while an accel descriptor was in
    /// flight.
    pub precomputed_under_accel: u64,
    /// Nanoseconds the CPU stalled on accel completions.
    pub accel_stall_ns: u64,
    /// Fallbacks because the pipeline was disabled or unkeyed.
    pub fallback_disabled: u64,
    /// Fallbacks because the accelerator clock was down-scaled.
    pub fallback_down_scaled: u64,
    /// Fallbacks because the cipher mode is serially chained.
    pub fallback_unsupported_mode: u64,
    /// Fallbacks because the miss run was below
    /// [`accel_route::MIN_ROUTED_UNITS`] sectors.
    pub fallback_below_threshold: u64,
    /// Fallbacks because the health breaker was open for the accel path.
    pub fallback_breaker_open: u64,
    /// Keystream precompute passes cut short by the pressure governor's
    /// fill cap (elective cache growth shed while on-SoC space is
    /// scarce).
    pub keystream_fill_capped: u64,
    /// Accelerator descriptors abandoned at the watchdog deadline.
    pub accel_timeouts: u64,
    /// Accelerator descriptors retired with a corrupt status word.
    pub accel_corrupt: u64,
}

impl ReadOverlapStats {
    fn note_fallback(&mut self, reason: FallbackReason) {
        match reason {
            FallbackReason::Disabled => self.fallback_disabled += 1,
            FallbackReason::AccelDownScaled => self.fallback_down_scaled += 1,
            FallbackReason::UnsupportedCipherMode => self.fallback_unsupported_mode += 1,
            FallbackReason::BelowThreshold => self.fallback_below_threshold += 1,
            FallbackReason::BreakerOpen => self.fallback_breaker_open += 1,
        }
    }

    /// Total fallback events.
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.fallback_disabled
            + self.fallback_down_scaled
            + self.fallback_unsupported_mode
            + self.fallback_below_threshold
            + self.fallback_breaker_open
    }
}

/// The cipher a mapping uses: the pinned `cipher`, else the Crypto API's
/// preferred one.
fn engine<'a>(
    api: &'a mut CryptoApi,
    cipher: &Option<String>,
) -> Result<&'a mut (dyn CipherEngine + 'static), KernelError> {
    match cipher {
        Some(name) => api.by_name_mut(name),
        None => api.preferred_mut(),
    }
}

/// Per-volume state of the asynchronous read pipeline: the keystream
/// cache, the volume-keyed bitsliced cipher that fills it, and counters.
#[derive(Debug, Clone)]
pub struct ReadPipeline {
    config: PipelineConfig,
    cache: KeystreamCache,
    /// Pressure-governor fill cap: while set, precompute stops growing
    /// the cache past this many resident sectors (existing entries stay
    /// usable). `None` leaves the cache's own capacity in charge.
    fill_cap: Option<usize>,
    /// Bitsliced cipher under the volume key — same key the engine was
    /// given, so its CTR output is byte-identical to the engine's.
    /// `None` until `set_key` runs with the pipeline enabled.
    bits: Option<BitslicedAes>,
    /// Cumulative counters.
    pub stats: ReadOverlapStats,
}

impl ReadPipeline {
    fn new(config: PipelineConfig) -> Self {
        ReadPipeline {
            config,
            cache: KeystreamCache::new(SECTOR_SIZE, KEYSTREAM_SECTORS),
            fill_cap: None,
            bits: None,
            stats: ReadOverlapStats::default(),
        }
    }

    fn rekey(&mut self, key: &[u8]) {
        // Volume-key rotation: every cached keystream buffer was derived
        // from the old key — zeroize the lot and bump the epoch so no
        // in-flight consumer can hit.
        self.cache.rotate_epoch();
        self.bits = BitslicedAes::new(key).ok();
    }
}

/// A dm-crypt mapping over a block device.
#[derive(Debug, Clone)]
pub struct DmCrypt {
    cipher: Option<String>,
    /// Sector MAC, derived from the volume key at `set_key`
    /// (`E_volumekey("SENTRY-DMCRYPT-1")`); `None` until a key is set.
    /// Built once per key, scalar and bitsliced schedules together, so
    /// requests never re-run key setup.
    mac: RefCell<Option<Cmac>>,
    /// Recorded tag per absolute sector number.
    tags: RefCell<HashMap<u64, [u8; 8]>>,
    /// Asynchronous read pipeline; `None` (the default) keeps the
    /// historical inline behaviour.
    pipeline: RefCell<Option<ReadPipeline>>,
    /// Health governor for this mapping's accelerator dispatch and disk
    /// retries. Enabled with default tuning from construction; flaky
    /// hardware degrades to the CPU path instead of hanging the read.
    health: RefCell<HealthGovernor>,
}

impl DmCrypt {
    /// A mapping that uses the Crypto API's *preferred* cipher — the
    /// paper's priority mechanism in action.
    #[must_use]
    pub fn with_preferred_cipher() -> Self {
        DmCrypt {
            cipher: None,
            mac: RefCell::new(None),
            tags: RefCell::new(HashMap::new()),
            pipeline: RefCell::new(None),
            health: RefCell::new(HealthGovernor::new(HealthConfig::default())),
        }
    }

    /// A mapping pinned to a specific registered cipher (used by the
    /// baseline measurements).
    #[must_use]
    pub fn with_cipher(name: impl Into<String>) -> Self {
        DmCrypt {
            cipher: Some(name.into()),
            mac: RefCell::new(None),
            tags: RefCell::new(HashMap::new()),
            pipeline: RefCell::new(None),
            health: RefCell::new(HealthGovernor::new(HealthConfig::default())),
        }
    }

    /// Replace the health-governor tuning. Resets the breaker state and
    /// counters — call at mapping setup, not mid-flight.
    pub fn set_health(&self, config: HealthConfig) {
        *self.health.borrow_mut() = HealthGovernor::new(config);
    }

    /// Snapshot of the governor's counters, folding any still-open
    /// degraded interval up to `now_ns` into `time_degraded_ns`.
    #[must_use]
    pub fn health_stats(&self, now_ns: u64) -> HealthStats {
        let mut h = self.health.borrow_mut();
        h.finalize(now_ns);
        h.stats
    }

    /// Current breaker state for this mapping's accelerator path.
    #[must_use]
    pub fn health_state(&self) -> HealthState {
        self.health.borrow().state()
    }

    /// Enable the asynchronous read pipeline. Call before `set_key` so
    /// the keystream precompute lanes get the volume key; enabling later
    /// leaves the pipeline keyless (reads fall back inline) until the
    /// next `set_key`.
    pub fn enable_pipeline(&self, config: PipelineConfig) {
        *self.pipeline.borrow_mut() = Some(ReadPipeline::new(config));
    }

    /// Zeroize every cached keystream buffer and rotate the cache epoch.
    /// Called on device lock: keystream is key-equivalent material and
    /// must not survive a lock transition.
    pub fn zeroize_keystream(&self) {
        if let Some(p) = self.pipeline.borrow_mut().as_mut() {
            p.cache.rotate_epoch();
        }
    }

    /// Install (or clear) the pressure governor's keystream fill cap:
    /// while set, the precompute lanes stop growing the cache past `cap`
    /// resident sectors. Entries already cached keep serving hits —
    /// the cap sheds elective growth, it does not discard keystream.
    pub fn set_keystream_cap(&self, cap: Option<usize>) {
        if let Some(p) = self.pipeline.borrow_mut().as_mut() {
            p.fill_cap = cap;
        }
    }

    /// Snapshot of the pipeline counters, if the pipeline is enabled.
    #[must_use]
    pub fn pipeline_stats(&self) -> Option<(ReadOverlapStats, KeystreamStats)> {
        self.pipeline
            .borrow()
            .as_ref()
            .map(|p| (p.stats, p.cache.stats))
    }

    /// Number of keystream sectors currently resident in the cache.
    #[must_use]
    pub fn keystream_resident(&self) -> usize {
        self.pipeline.borrow().as_ref().map_or(0, |p| p.cache.len())
    }

    /// The `plain64` IV for a sector.
    #[must_use]
    pub fn sector_iv(sector: u64) -> [u8; 16] {
        let mut iv = [0u8; 16];
        iv[..8].copy_from_slice(&sector.to_le_bytes());
        iv
    }

    /// Install the volume key (dm-crypt's one key-setting call).
    ///
    /// # Errors
    ///
    /// Propagates cipher lookup and key errors.
    pub fn set_key(
        &self,
        api: &mut CryptoApi,
        soc: &mut Soc,
        key: &[u8],
    ) -> Result<(), KernelError> {
        engine(api, &self.cipher)?.set_key(soc, key)?;
        // Domain-separated sector-MAC key: encrypting a fixed label
        // under the volume key reuses the installed cipher family
        // without a second key-management path.
        let volume = Aes::new(key)?;
        let mut mk = *b"SENTRY-DMCRYPT-1";
        volume.encrypt_block(&mut mk);
        *self.mac.borrow_mut() = Some(Cmac::new(Aes::new(&mk)?));
        self.tags.borrow_mut().clear();
        if let Some(p) = self.pipeline.borrow_mut().as_mut() {
            p.rekey(key);
        }
        Ok(())
    }

    /// Read and decrypt whole sectors.
    ///
    /// # Errors
    ///
    /// Propagates block and cipher errors.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not a whole number of sectors.
    pub fn read(
        &self,
        api: &mut CryptoApi,
        soc: &mut Soc,
        dev: &mut dyn BlockDevice,
        sector: u64,
        buf: &mut [u8],
    ) -> Result<(), KernelError> {
        assert!(buf.len().is_multiple_of(SECTOR_SIZE), "whole sectors only");
        let t0 = soc.clock.now_ns();
        // Transient device faults (injected at the "disk.read" site) get
        // a bounded retry budget with exponential sim-clock backoff; a
        // stall at the same site just inflates the disk wait. With the
        // governor disabled the budget is zero and faults surface raw.
        let mut attempt: u32 = 0;
        loop {
            match soc.failpoint("disk.read") {
                Ok(()) => {
                    dev.read_sectors(sector, buf, &mut soc.clock)?;
                    if attempt > 0 {
                        self.health.borrow_mut().stats.disk.recovered += 1;
                    }
                    break;
                }
                Err(e @ SocError::DeviceFault { .. }) => {
                    let mut h = self.health.borrow_mut();
                    h.stats.disk.attempts += 1;
                    attempt += 1;
                    if attempt > h.disk_retry_budget() {
                        h.stats.disk.exhausted += 1;
                        return Err(e.into());
                    }
                    let backoff = h.disk_backoff_ns(attempt);
                    drop(h);
                    soc.clock.advance(backoff);
                }
                Err(e) => return Err(e.into()),
            }
        }
        let disk_wait_ns = soc.clock.now_ns() - t0;
        // Authenticate the raw ciphertext before any of it is decrypted:
        // a spliced or bit-flipped sector must fail closed, not hand the
        // filesystem plausible-looking garbage.
        let ivs: Vec<[u8; 16]> = (0..buf.len() / SECTOR_SIZE)
            .map(|i| Self::sector_iv(sector + i as u64))
            .collect();
        if let Some(mac) = self.mac.borrow().as_ref() {
            let tags = self.tags.borrow();
            // Sectors never written through this mapping have no tag
            // and pass unverified.
            let expected: Vec<(usize, [u8; 8])> = (0..ivs.len())
                .filter_map(|i| tags.get(&(sector + i as u64)).map(|t| (i, *t)))
                .collect();
            let got = if expected.len() == ivs.len() {
                mac.mac_extents(&ivs, buf)
            } else {
                expected
                    .iter()
                    .map(|&(i, _)| {
                        mac.mac_parts(&[&ivs[i], &buf[i * SECTOR_SIZE..][..SECTOR_SIZE]])
                    })
                    .collect()
            };
            for (&(i, expected), got) in expected.iter().zip(&got) {
                let got = trunc8(got);
                if got != expected {
                    return Err(KernelError::SectorTamper {
                        sector: sector + i as u64,
                        tag_expected: expected,
                        tag_got: got,
                    });
                }
            }
        }
        let mode = engine(api, &self.cipher)?.mode();
        if let Some(p) = self.pipeline.borrow_mut().as_mut() {
            if p.config.enabled {
                return Self::read_overlapped(
                    p,
                    api,
                    soc,
                    sector,
                    buf,
                    &ivs,
                    mode,
                    disk_wait_ns,
                    &self.cipher,
                    &mut self.health.borrow_mut(),
                );
            }
        }
        // One extent call for the whole request: an engine with a batch
        // backend decrypts the sector run as a single block stream
        // instead of draining its pipeline at every 512-byte boundary.
        engine(api, &self.cipher)?.decrypt_extent(soc, &ivs, buf)
    }

    /// The overlapped read path: XOR precomputed keystream into hit
    /// sectors, queue the miss run to the accelerator, and keep the CPU's
    /// bitsliced lanes busy precomputing lookahead keystream while the
    /// descriptor is in flight. Only CTR has data-independent keystream:
    /// other modes route nothing and decrypt the whole request inline.
    #[allow(clippy::too_many_arguments)]
    fn read_overlapped(
        p: &mut ReadPipeline,
        api: &mut CryptoApi,
        soc: &mut Soc,
        sector: u64,
        buf: &mut [u8],
        ivs: &[[u8; 16]],
        mode: PageCipherMode,
        disk_wait_ns: u64,
        cipher: &Option<String>,
        health: &mut HealthGovernor,
    ) -> Result<(), KernelError> {
        let nsect = buf.len() / SECTOR_SIZE;
        let ctr = mode == PageCipherMode::Ctr;
        // Generating keystream costs what the engine's per-block charge
        // does, with the lanes' state cache-resident.
        let ks_cost = soc
            .costs
            .crypt_ns(soc.costs.cache_hit_ns, SECTOR_SIZE as u64);
        let mut hits: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut misses: Vec<usize> = Vec::new();
        if ctr {
            let epoch = p.cache.epoch();
            // Precompute hidden under the device wait the caller just
            // paid: the CPU was idle while the device streamed, so
            // keystream for this request's leading uncached sectors
            // comes for free up to that budget (charging nothing is the
            // same cost-substitution convention AES On SoC's critical
            // sections use).
            if let Some(bits) = &p.bits {
                let mut budget = disk_wait_ns;
                for (i, iv) in ivs.iter().enumerate() {
                    let s = sector + i as u64;
                    if p.cache.contains(s) {
                        continue;
                    }
                    if budget < ks_cost {
                        break;
                    }
                    if p.fill_cap.is_some_and(|cap| p.cache.len() >= cap) {
                        p.stats.keystream_fill_capped += 1;
                        break;
                    }
                    budget -= ks_cost;
                    p.cache.insert(s, ctr_keystream(bits, iv, SECTOR_SIZE));
                    p.stats.precomputed_under_disk += 1;
                }
            }
            // Partition the request: sectors with resident keystream
            // finish with a XOR; the rest form the miss run. `take`
            // consumes each entry — the single-use discipline.
            for i in 0..nsect {
                match p.cache.take(sector + i as u64, epoch) {
                    Some(ks) => hits.push((i, ks)),
                    None => misses.push(i),
                }
            }
        } else {
            misses.extend(0..nsect);
        }
        let miss_bytes = misses.len() * SECTOR_SIZE;
        let veto = if misses.is_empty() {
            None
        } else {
            accel_route::veto(
                soc,
                health,
                ctr,
                misses.len(),
                p.bits.is_some(),
                miss_bytes as u64,
            )
        };
        let miss_ivs: Vec<[u8; 16]> = misses.iter().map(|&i| ivs[i]).collect();
        let mut gathered = Vec::with_capacity(miss_bytes);
        for &i in &misses {
            gathered.extend_from_slice(&buf[i * SECTOR_SIZE..(i + 1) * SECTOR_SIZE]);
        }
        let op = if veto.is_none() && !misses.is_empty() {
            let op = accel_route::dispatch(soc, health, &gathered)?;
            p.stats.routed_extents += 1;
            p.stats.routed_sectors += misses.len() as u64;
            Some(op)
        } else {
            None
        };

        // The CPU runs ahead while any descriptor is in flight: first
        // the XOR finish of the hit sectors…
        for (i, ks) in &mut hits {
            xor_keystream(&mut buf[*i * SECTOR_SIZE..(*i + 1) * SECTOR_SIZE], ks);
            soc.clock.advance(Self::xor_cost_ns(soc, SECTOR_SIZE));
            p.stats.xor_sectors += 1;
            ks.fill(0);
        }
        let on_cpu = match op {
            Some(op) => {
                // …then lookahead keystream for the sectors a sequential
                // reader will ask for next, until the engine catches up.
                if let Some(bits) = &p.bits {
                    let deadline = op.completes_at_ns(soc);
                    let mut next = sector + nsect as u64;
                    let end = next + PRECOMPUTE_AHEAD;
                    while next < end {
                        if p.cache.contains(next) {
                            next += 1;
                            continue;
                        }
                        if soc.clock.now_ns() + ks_cost > deadline {
                            break;
                        }
                        if p.fill_cap.is_some_and(|cap| p.cache.len() >= cap) {
                            p.stats.keystream_fill_capped += 1;
                            break;
                        }
                        p.cache.insert(
                            next,
                            ctr_keystream(bits, &Self::sector_iv(next), SECTOR_SIZE),
                        );
                        soc.clock.advance(ks_cost);
                        p.stats.precomputed_under_accel += 1;
                        next += 1;
                    }
                }
                match accel_route::retire(soc, health, op)? {
                    WaitOutcome::Done { stall_ns } => {
                        p.stats.accel_stall_ns += stall_ns;
                        let bits = p.bits.as_ref().expect("routed with key");
                        ctr_crypt_extents(bits, &miss_ivs, &mut gathered);
                        accel_route::land(soc, &gathered)?;
                        false
                    }
                    WaitOutcome::TimedOut { waited_ns } => {
                        p.stats.accel_stall_ns += waited_ns;
                        p.stats.accel_timeouts += 1;
                        true
                    }
                    WaitOutcome::Corrupt { stall_ns } => {
                        p.stats.accel_stall_ns += stall_ns;
                        p.stats.accel_corrupt += 1;
                        true
                    }
                }
            }
            None => veto.inspect(|&r| p.stats.note_fallback(r)).is_some(),
        };
        if on_cpu {
            // Vetoed or abandoned: decrypt the miss run on the CPU
            // engine. CTR under the same (key, sector IV) pairs is
            // byte-identical to what the accelerator would have
            // produced, so callers never see the fault.
            engine(api, cipher)?.decrypt_extent(soc, &miss_ivs, &mut gathered)?;
            p.stats.inline_sectors += misses.len() as u64;
        }
        for (k, &i) in misses.iter().enumerate() {
            buf[i * SECTOR_SIZE..(i + 1) * SECTOR_SIZE]
                .copy_from_slice(&gathered[k * SECTOR_SIZE..(k + 1) * SECTOR_SIZE]);
        }
        Ok(())
    }

    /// CPU cost to XOR one unit of precomputed keystream into data —
    /// word-wide streaming through the cache.
    fn xor_cost_ns(soc: &Soc, bytes: usize) -> u64 {
        (bytes as u64 / 32) * soc.costs.cache_hit_ns
    }

    /// Encrypt and write whole sectors.
    ///
    /// # Errors
    ///
    /// Propagates block and cipher errors.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of sectors.
    pub fn write(
        &self,
        api: &mut CryptoApi,
        soc: &mut Soc,
        dev: &mut dyn BlockDevice,
        sector: u64,
        data: &[u8],
    ) -> Result<(), KernelError> {
        assert!(data.len().is_multiple_of(SECTOR_SIZE), "whole sectors only");
        let mut ct = data.to_vec();
        let ivs: Vec<[u8; 16]> = (0..data.len() / SECTOR_SIZE)
            .map(|i| Self::sector_iv(sector + i as u64))
            .collect();
        engine(api, &self.cipher)?.encrypt_extent(soc, &ivs, &mut ct)?;
        // Record the tag before the ciphertext reaches the device, so
        // there is no window in which tampered bytes could be accepted.
        if let Some(mac) = self.mac.borrow().as_ref() {
            let mut tags = self.tags.borrow_mut();
            for (i, full) in mac.mac_extents(&ivs, &ct).iter().enumerate() {
                tags.insert(sector + i as u64, trunc8(full));
            }
        }
        dev.write_sectors(sector, &ct, &mut soc.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::RamDisk;
    use crate::crypto_api::GenericAesEngine;
    use sentry_soc::accel::AccelPowerState;

    fn setup() -> (CryptoApi, Soc, RamDisk, DmCrypt) {
        let mut api = CryptoApi::new();
        api.register(Box::new(GenericAesEngine::new(0)));
        let mut soc = Soc::tegra3_small();
        let dm = DmCrypt::with_preferred_cipher();
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        (api, soc, RamDisk::new(256), dm)
    }

    #[test]
    fn roundtrip_through_encryption() {
        let (mut api, mut soc, mut disk, dm) = setup();
        let data = vec![0x5Au8; SECTOR_SIZE * 4];
        dm.write(&mut api, &mut soc, &mut disk, 10, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        dm.read(&mut api, &mut soc, &mut disk, 10, &mut back)
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn on_disk_bytes_are_ciphertext() {
        let (mut api, mut soc, mut disk, dm) = setup();
        let data = vec![0x5Au8; SECTOR_SIZE];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
        let mut raw = vec![0u8; SECTOR_SIZE];
        let mut clock = sentry_soc::SimClock::new();
        disk.read_sectors(0, &mut raw, &mut clock).unwrap();
        assert_ne!(raw, data, "device must hold ciphertext");
    }

    #[test]
    fn equal_sectors_encrypt_differently() {
        // plain64 IVs differ per sector, so identical plaintext sectors
        // yield different ciphertext.
        let (mut api, mut soc, mut disk, dm) = setup();
        let data = vec![0x77u8; SECTOR_SIZE * 2];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
        let mut raw = vec![0u8; SECTOR_SIZE * 2];
        let mut clock = sentry_soc::SimClock::new();
        disk.read_sectors(0, &mut raw, &mut clock).unwrap();
        assert_ne!(raw[..SECTOR_SIZE], raw[SECTOR_SIZE..]);
    }

    #[test]
    fn batched_requests_match_single_sector_requests() {
        // The on-disk format is per-sector CBC with plain64 IVs; a
        // multi-sector request must produce exactly the bytes that
        // sector-at-a-time requests would, so volumes stay readable
        // across request-size changes.
        let (mut api, mut soc, mut disk, dm) = setup();
        let data: Vec<u8> = (0..SECTOR_SIZE * 8).map(|i| (i * 7) as u8).collect();
        dm.write(&mut api, &mut soc, &mut disk, 4, &data).unwrap();
        let mut whole = vec![0u8; data.len()];
        dm.read(&mut api, &mut soc, &mut disk, 4, &mut whole)
            .unwrap();
        assert_eq!(whole, data);
        for (i, expect) in data.chunks_exact(SECTOR_SIZE).enumerate() {
            let mut one = vec![0u8; SECTOR_SIZE];
            dm.read(&mut api, &mut soc, &mut disk, 4 + i as u64, &mut one)
                .unwrap();
            assert_eq!(one, expect, "sector {i}");
        }
    }

    #[test]
    fn sector_iv_is_little_endian_sector_number() {
        let iv = DmCrypt::sector_iv(0x0102_0304);
        assert_eq!(iv[0], 0x04);
        assert_eq!(iv[3], 0x01);
        assert_eq!(&iv[8..], &[0u8; 8]);
    }

    #[test]
    fn tampered_sector_is_rejected_before_decrypt() {
        let (mut api, mut soc, mut disk, dm) = setup();
        let data = vec![0x42u8; SECTOR_SIZE * 2];
        dm.write(&mut api, &mut soc, &mut disk, 5, &data).unwrap();

        // Flip one ciphertext bit on the device behind dm-crypt's back.
        let mut raw = vec![0u8; SECTOR_SIZE];
        let mut clock = sentry_soc::SimClock::new();
        disk.read_sectors(6, &mut raw, &mut clock).unwrap();
        raw[100] ^= 0x08;
        disk.write_sectors(6, &raw, &mut clock).unwrap();

        let mut back = vec![0u8; SECTOR_SIZE * 2];
        let err = dm
            .read(&mut api, &mut soc, &mut disk, 5, &mut back)
            .unwrap_err();
        assert!(
            matches!(err, KernelError::SectorTamper { sector: 6, .. }),
            "{err}"
        );
        // The intact sector alone still reads fine.
        let mut one = vec![0u8; SECTOR_SIZE];
        dm.read(&mut api, &mut soc, &mut disk, 5, &mut one).unwrap();
        assert_eq!(one, data[..SECTOR_SIZE]);
    }

    #[test]
    fn spliced_sectors_are_rejected() {
        // Swapping two valid ciphertext sectors is caught because the
        // tag binds the sector number through the plain64 IV.
        let (mut api, mut soc, mut disk, dm) = setup();
        dm.write(&mut api, &mut soc, &mut disk, 0, &vec![1u8; SECTOR_SIZE])
            .unwrap();
        dm.write(&mut api, &mut soc, &mut disk, 1, &vec![2u8; SECTOR_SIZE])
            .unwrap();
        let mut clock = sentry_soc::SimClock::new();
        let (mut a, mut b) = (vec![0u8; SECTOR_SIZE], vec![0u8; SECTOR_SIZE]);
        disk.read_sectors(0, &mut a, &mut clock).unwrap();
        disk.read_sectors(1, &mut b, &mut clock).unwrap();
        disk.write_sectors(0, &b, &mut clock).unwrap();
        disk.write_sectors(1, &a, &mut clock).unwrap();

        let mut back = vec![0u8; SECTOR_SIZE];
        let err = dm
            .read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .unwrap_err();
        assert!(matches!(err, KernelError::SectorTamper { sector: 0, .. }));
    }

    #[test]
    fn xts_mode_roundtrips_and_rejects_spliced_sectors() {
        // Under the XTS page cipher the per-sector tweak is the same
        // plain64 IV, so ciphertext moved between sectors decrypts under
        // the wrong tweak — and the sector CMAC (which binds the IV)
        // rejects it before decryption is even attempted.
        let (mut api, mut soc, mut disk, dm) = setup();
        api.preferred_mut()
            .unwrap()
            .set_mode(sentry_crypto::PageCipherMode::Xts)
            .unwrap();
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();

        let data: Vec<u8> = (0..SECTOR_SIZE * 2).map(|i| (i * 13) as u8).collect();
        dm.write(&mut api, &mut soc, &mut disk, 7, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        dm.read(&mut api, &mut soc, &mut disk, 7, &mut back)
            .unwrap();
        assert_eq!(back, data, "XTS roundtrip through dm-crypt");

        // Swap the two valid ciphertext sectors behind dm-crypt's back.
        let mut clock = sentry_soc::SimClock::new();
        let (mut a, mut b) = (vec![0u8; SECTOR_SIZE], vec![0u8; SECTOR_SIZE]);
        disk.read_sectors(7, &mut a, &mut clock).unwrap();
        disk.read_sectors(8, &mut b, &mut clock).unwrap();
        disk.write_sectors(7, &b, &mut clock).unwrap();
        disk.write_sectors(8, &a, &mut clock).unwrap();

        let err = dm
            .read(&mut api, &mut soc, &mut disk, 7, &mut back)
            .unwrap_err();
        assert!(matches!(err, KernelError::SectorTamper { sector: 7, .. }));
    }

    #[test]
    fn unwritten_sectors_pass_through_unverified() {
        // No tag was ever recorded for sector 99, so reading it (e.g. a
        // filesystem probing unformatted space) is not a tamper event.
        let (mut api, mut soc, mut disk, dm) = setup();
        let mut back = vec![0u8; SECTOR_SIZE];
        dm.read(&mut api, &mut soc, &mut disk, 99, &mut back)
            .unwrap();
    }

    #[test]
    fn partly_written_range_verifies_only_its_tagged_sectors() {
        // Sectors 10..14 are written, 8, 9, 14 and 15 never were: the
        // read spans both, so only the tagged sectors are MACed.
        let (mut api, mut soc, mut disk, dm) = setup();
        let data = vec![0x3Cu8; SECTOR_SIZE * 4];
        dm.write(&mut api, &mut soc, &mut disk, 10, &data).unwrap();
        let mut back = vec![0u8; SECTOR_SIZE * 8];
        dm.read(&mut api, &mut soc, &mut disk, 8, &mut back)
            .unwrap();
        assert_eq!(back[2 * SECTOR_SIZE..6 * SECTOR_SIZE], data[..]);

        let mut raw = vec![0u8; SECTOR_SIZE];
        let mut clock = sentry_soc::SimClock::new();
        disk.read_sectors(12, &mut raw, &mut clock).unwrap();
        raw[7] ^= 0x01;
        disk.write_sectors(12, &raw, &mut clock).unwrap();
        let err = dm
            .read(&mut api, &mut soc, &mut disk, 8, &mut back)
            .unwrap_err();
        assert!(
            matches!(err, KernelError::SectorTamper { sector: 12, .. }),
            "{err}"
        );
    }

    #[test]
    fn rekeying_drops_stale_tags() {
        let (mut api, mut soc, mut disk, dm) = setup();
        dm.write(&mut api, &mut soc, &mut disk, 0, &vec![7u8; SECTOR_SIZE])
            .unwrap();
        // New volume key: old ciphertext is unreadable anyway, and the
        // stale tags must not condemn sectors the new key never wrote.
        dm.set_key(&mut api, &mut soc, &[13u8; 16]).unwrap();
        let mut back = vec![0u8; SECTOR_SIZE];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .unwrap();
    }

    #[test]
    fn overlapped_ctr_read_is_byte_identical_and_faster() {
        let (mut api, mut soc, mut disk, dm) = setup();
        api.preferred_mut()
            .unwrap()
            .set_mode(PageCipherMode::Ctr)
            .unwrap();
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        soc.accel.state = AccelPowerState::Awake;

        let nsect = 64usize;
        let data: Vec<u8> = (0..nsect * SECTOR_SIZE).map(|i| (i * 31) as u8).collect();
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();

        // Inline reference read.
        let mut inline = vec![0u8; data.len()];
        let t0 = soc.clock.now_ns();
        for chunk in 0..nsect / 16 {
            dm.read(
                &mut api,
                &mut soc,
                &mut disk,
                chunk as u64 * 16,
                &mut inline[chunk * 16 * SECTOR_SIZE..(chunk + 1) * 16 * SECTOR_SIZE],
            )
            .unwrap();
        }
        let inline_ns = soc.clock.now_ns() - t0;
        assert_eq!(inline, data);

        // Same volume, pipeline enabled.
        let pdm = DmCrypt::with_preferred_cipher();
        pdm.enable_pipeline(PipelineConfig::enabled());
        pdm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        // set_key cleared the sector tags; rewrite so the MAC state is
        // consistent (bytes on disk are identical — CTR is keyed by
        // (key, sector) only).
        pdm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();

        let mut overlapped = vec![0u8; data.len()];
        let t0 = soc.clock.now_ns();
        for chunk in 0..nsect / 16 {
            pdm.read(
                &mut api,
                &mut soc,
                &mut disk,
                chunk as u64 * 16,
                &mut overlapped[chunk * 16 * SECTOR_SIZE..(chunk + 1) * 16 * SECTOR_SIZE],
            )
            .unwrap();
        }
        let overlapped_ns = soc.clock.now_ns() - t0;
        assert_eq!(overlapped, data, "overlapped path is byte-identical");

        let (stats, ks) = pdm.pipeline_stats().unwrap();
        assert!(stats.routed_extents > 0, "{stats:?}");
        assert!(stats.xor_sectors > 0, "precomputed keystream was used");
        assert!(ks.hits > 0 && ks.precomputed > 0, "{ks:?}");
        assert!(
            overlapped_ns * 2 < inline_ns,
            "overlapped {overlapped_ns} ns vs inline {inline_ns} ns"
        );
    }

    #[test]
    fn down_scaled_accel_falls_back_inline_with_typed_reason() {
        let (mut api, mut soc, mut disk, _) = setup();
        api.preferred_mut()
            .unwrap()
            .set_mode(PageCipherMode::Ctr)
            .unwrap();
        let dm = DmCrypt::with_preferred_cipher();
        dm.enable_pipeline(PipelineConfig::enabled());
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        // Locked device: accel clock down-scaled (the Soc default).
        assert_eq!(soc.accel.state, AccelPowerState::DownScaled);

        let data = vec![0x3Cu8; SECTOR_SIZE * 16];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .unwrap();
        assert_eq!(back, data);

        let (stats, _) = dm.pipeline_stats().unwrap();
        assert_eq!(stats.routed_extents, 0, "nothing queued while locked");
        assert!(stats.fallback_down_scaled > 0, "{stats:?}");
    }

    #[test]
    fn cbc_mode_falls_back_with_unsupported_mode_reason() {
        let (mut api, mut soc, mut disk, _) = setup();
        let dm = DmCrypt::with_preferred_cipher();
        dm.enable_pipeline(PipelineConfig::enabled());
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        soc.accel.state = AccelPowerState::Awake;

        let data = vec![0x11u8; SECTOR_SIZE * 8];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .unwrap();
        assert_eq!(back, data);
        let (stats, _) = dm.pipeline_stats().unwrap();
        assert!(stats.fallback_unsupported_mode > 0);
        assert_eq!(stats.routed_extents, 0);
    }

    #[test]
    fn lock_zeroizes_keystream_and_rotates_epoch() {
        let (mut api, mut soc, mut disk, _) = setup();
        api.preferred_mut()
            .unwrap()
            .set_mode(PageCipherMode::Ctr)
            .unwrap();
        let dm = DmCrypt::with_preferred_cipher();
        dm.enable_pipeline(PipelineConfig::enabled());
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        soc.accel.state = AccelPowerState::Awake;

        let data = vec![0x77u8; SECTOR_SIZE * 32];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
        let mut back = vec![0u8; SECTOR_SIZE * 16];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .unwrap();
        assert!(dm.keystream_resident() > 0, "lookahead filled the cache");

        dm.zeroize_keystream();
        assert_eq!(dm.keystream_resident(), 0, "lock leaves no keystream");
        let (_, ks) = dm.pipeline_stats().unwrap();
        assert!(ks.zeroized_on_rotate > 0);

        // Reads after the lock transition still work (epoch moved on).
        dm.read(&mut api, &mut soc, &mut disk, 16, &mut back)
            .unwrap();
        assert_eq!(back, data[16 * SECTOR_SIZE..32 * SECTOR_SIZE]);
    }

    #[test]
    fn keystream_cap_sheds_fill_without_breaking_reads() {
        let (mut api, mut soc, mut disk, _) = setup();
        api.preferred_mut()
            .unwrap()
            .set_mode(PageCipherMode::Ctr)
            .unwrap();
        let dm = DmCrypt::with_preferred_cipher();
        dm.enable_pipeline(PipelineConfig::enabled());
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        soc.accel.state = AccelPowerState::Awake;

        let data = vec![0x2Du8; SECTOR_SIZE * 32];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();

        dm.set_keystream_cap(Some(2));
        let mut back = vec![0u8; SECTOR_SIZE * 16];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .unwrap();
        assert_eq!(back, data[..16 * SECTOR_SIZE], "capped reads stay correct");
        assert!(
            dm.keystream_resident() <= 2,
            "cache never grows past the cap: {}",
            dm.keystream_resident()
        );
        let (stats, _) = dm.pipeline_stats().unwrap();
        assert!(stats.keystream_fill_capped > 0, "{stats:?}");

        // Relief: lifting the cap restores elective fill.
        dm.set_keystream_cap(None);
        dm.read(&mut api, &mut soc, &mut disk, 16, &mut back)
            .unwrap();
        assert_eq!(back, data[16 * SECTOR_SIZE..32 * SECTOR_SIZE]);
        assert!(
            dm.keystream_resident() > 2,
            "uncapped reads refill the cache"
        );
    }

    #[test]
    fn pinned_cipher_is_honoured() {
        let (mut api, mut soc, mut disk, _) = setup();
        let dm = DmCrypt::with_cipher("aes-cbc-generic");
        dm.set_key(&mut api, &mut soc, &[1u8; 16]).unwrap();
        let data = vec![1u8; SECTOR_SIZE];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
        let missing = DmCrypt::with_cipher("aes-none");
        assert!(missing.set_key(&mut api, &mut soc, &[1u8; 16]).is_err());
    }
}
