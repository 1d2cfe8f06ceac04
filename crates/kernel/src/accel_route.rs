//! The accelerator router: the one path by which crypt work goes to the
//! crypto accelerator's descriptor queue and, when the engine
//! misbehaves, comes back to the CPU. Sentry's lifecycle decrypt
//! batches and dm-crypt's overlapped read route through it;
//! [`crate::crypto_api::AccelAesEngine`] shares `stage` and [`land`].
//!
//! A routed op is [`veto`]ed or not, then [`dispatch`]ed, [`retire`]d
//! and, on success, [`land`]ed. Errors are [`SocError`]s so each caller
//! keeps its own conversion.

use crate::layout::{ACCEL_DMA_BASE, ACCEL_DMA_CONTROLLER, ACCEL_DMA_SIZE};
use sentry_crypto::{FailureKind, FallbackReason, HealthGovernor};
use sentry_soc::accel::{AccelOpId, AccelPowerState, WaitOutcome};
use sentry_soc::{Soc, SocError};

/// Smallest dispatch, in pages or sectors, worth a descriptor: below it
/// descriptor setup dominates.
pub const MIN_ROUTED_UNITS: usize = 2;

/// The routing decision for `units` units totalling `bytes`: `None`
/// routes them to the accelerator, `Some(reason)` keeps them on the CPU.
///
/// The order is fixed: cipher mode (`mode_supported`), down-scaled
/// accelerator, [`MIN_ROUTED_UNITS`], `keyed`, then the breaker. The
/// governor goes last because [`HealthGovernor::allow_accel`] has side
/// effects (a half-open probe is counted), so an earlier refusal never
/// touches the breaker. A breaker-open veto counts `bytes` as CPU
/// fallback work.
pub fn veto(
    soc: &Soc,
    health: &mut HealthGovernor,
    mode_supported: bool,
    units: usize,
    keyed: bool,
    bytes: u64,
) -> Option<FallbackReason> {
    let reason = if !mode_supported {
        FallbackReason::UnsupportedCipherMode
    } else if soc.accel.state != AccelPowerState::Awake {
        FallbackReason::AccelDownScaled
    } else if units < MIN_ROUTED_UNITS {
        FallbackReason::BelowThreshold
    } else if !keyed {
        FallbackReason::Disabled
    } else if !health.allow_accel(soc.clock.now_ns()) {
        // Breaker open, probe interval not yet elapsed: the engine is
        // distrusted, the CPU path carries the work.
        health.note_fallback_crypt(bytes);
        FallbackReason::BreakerOpen
    } else {
        return None;
    };
    Some(reason)
}

/// A descriptor submitted by [`dispatch`], awaiting [`retire`].
#[derive(Debug)]
#[must_use = "an in-flight descriptor must be retired"]
pub struct InFlight {
    id: AccelOpId,
    submitted_ns: u64,
    deadline_ns: u64,
    bytes: u64,
}

impl InFlight {
    /// Simulated time the descriptor was submitted.
    #[must_use]
    pub fn submitted_ns(&self) -> u64 {
        self.submitted_ns
    }

    /// When the engine completes the descriptor (the submit time if the
    /// queue no longer holds it).
    #[must_use]
    pub fn completes_at_ns(&self, soc: &Soc) -> u64 {
        let done = soc.accel_queue.completion_ns(self.id);
        done.unwrap_or(self.submitted_ns)
    }
}

/// The bounce window holds one pass of an op; one pass is enough to make
/// the traffic observable.
fn staged_len(len: usize) -> usize {
    len.min(ACCEL_DMA_SIZE as usize)
}

/// Stage `input` through the DMA bounce window (the engine masters the
/// bus, so a monitor sees it), then hit the `accel.dma` kill point: a
/// power cut there finds only input in the window.
///
/// # Errors
///
/// DMA faults and failpoint actions.
pub(crate) fn stage(soc: &mut Soc, input: &[u8]) -> Result<(), SocError> {
    land(soc, input)?;
    soc.failpoint("accel.dma")
}

/// Write `bytes` into the bounce window: an op's result, only at
/// completion (staging and the abandon zeroize write through here too).
///
/// # Errors
///
/// DMA faults.
pub fn land(soc: &mut Soc, bytes: &[u8]) -> Result<(), SocError> {
    let staged = &bytes[..staged_len(bytes.len())];
    soc.dma_write(ACCEL_DMA_CONTROLLER, ACCEL_DMA_BASE, staged)
}

/// Stage `input` and submit it as one descriptor, which an armed
/// fault plan at the `accel.submit` failpoint lands on. Its watchdog
/// deadline is its modeled duration times the governor's margin.
///
/// # Errors
///
/// DMA faults and failpoint actions.
pub fn dispatch(
    soc: &mut Soc,
    health: &HealthGovernor,
    input: &[u8],
) -> Result<InFlight, SocError> {
    stage(soc, input)?;
    soc.failpoint("accel.submit")?;
    let bytes = input.len() as u64;
    let now = soc.clock.now_ns();
    let id = soc.accel_queue.submit(&soc.accel, now, bytes);
    let deadline_ns = now.saturating_add(health.watchdog_ns(soc.accel.op_duration_ns(bytes)));
    Ok(InFlight {
        id,
        submitted_ns: now,
        deadline_ns,
        bytes,
    })
}

/// Retire `op`, stalling only for engine time the CPU failed to cover,
/// and report the outcome to the governor. On [`WaitOutcome::Done`] the
/// caller [`land`]s the result. A timeout or corrupt status abandons
/// the op: the failure is recorded (a timeout's staged bytes count as
/// abandoned), the bounce window is zeroized so it leaves nothing for a
/// bus monitor or cold-boot dump, and the op's bytes count as CPU
/// fallback work, which the caller then does.
///
/// # Errors
///
/// DMA faults while zeroizing the window.
pub fn retire(
    soc: &mut Soc,
    health: &mut HealthGovernor,
    op: InFlight,
) -> Result<WaitOutcome, SocError> {
    let outcome = soc
        .accel_queue
        .wait_deadline(op.id, &mut soc.clock, op.deadline_ns);
    let now = soc.clock.now_ns();
    let staged = staged_len(op.bytes as usize);
    match outcome {
        WaitOutcome::Done { .. } => {
            health.record_success(now);
            return Ok(outcome);
        }
        WaitOutcome::TimedOut { .. } => {
            health.record_failure(now, FailureKind::Timeout);
            health.note_abandoned(staged as u64);
        }
        WaitOutcome::Corrupt { .. } => health.record_failure(now, FailureKind::Corrupt),
    }
    land(soc, &vec![0u8; staged])?;
    health.note_fallback_crypt(op.bytes);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentry_crypto::{HealthConfig, HealthState};
    use sentry_soc::{FaultAction, FaultPlan};

    fn awake() -> Soc {
        let mut soc = Soc::tegra3_small();
        soc.accel.state = AccelPowerState::Awake;
        soc
    }

    /// A governor whose breaker tripped at time zero: once the probe
    /// interval has elapsed the next `allow_accel` goes HalfOpen and
    /// counts a probe.
    fn tripped_at_zero() -> HealthGovernor {
        let cfg = HealthConfig::default();
        let mut g = HealthGovernor::new(cfg);
        for _ in 0..cfg.trip_failures {
            g.record_failure(0, FailureKind::Timeout);
        }
        assert_eq!(g.state(), HealthState::Open);
        g
    }

    #[test]
    fn every_reason_is_reachable_in_the_documented_order() {
        let mut soc = awake();
        let mut g = HealthGovernor::new(HealthConfig::default());
        // Each step clears the previous reason; the rest stay failing.
        soc.accel.state = AccelPowerState::DownScaled;
        assert_eq!(
            veto(&soc, &mut g, false, 1, false, 512),
            Some(FallbackReason::UnsupportedCipherMode)
        );
        assert_eq!(
            veto(&soc, &mut g, true, 1, false, 512),
            Some(FallbackReason::AccelDownScaled)
        );
        soc.accel.state = AccelPowerState::Awake;
        assert_eq!(
            veto(&soc, &mut g, true, MIN_ROUTED_UNITS - 1, false, 512),
            Some(FallbackReason::BelowThreshold)
        );
        assert_eq!(
            veto(&soc, &mut g, true, MIN_ROUTED_UNITS, false, 1024),
            Some(FallbackReason::Disabled)
        );
        assert_eq!(veto(&soc, &mut g, true, MIN_ROUTED_UNITS, true, 1024), None);
        for _ in 0..HealthConfig::default().trip_failures {
            g.record_failure(soc.clock.now_ns(), FailureKind::Timeout);
        }
        assert_eq!(
            veto(&soc, &mut g, true, MIN_ROUTED_UNITS, true, 1024),
            Some(FallbackReason::BreakerOpen)
        );
        assert_eq!(
            g.stats.fallback_crypt_bytes, 1024,
            "only the breaker-open veto counts CPU fallback bytes"
        );
    }

    #[test]
    fn early_refusals_leave_the_breaker_untouched() {
        let mut soc = awake();
        soc.clock.advance(HealthConfig::default().probe_after_ns);
        let mut g = tripped_at_zero();
        let probes = g.stats.probes;

        soc.accel.state = AccelPowerState::DownScaled;
        let refusals = [
            (
                true,
                MIN_ROUTED_UNITS,
                true,
                FallbackReason::AccelDownScaled,
            ),
            (
                false,
                MIN_ROUTED_UNITS,
                true,
                FallbackReason::UnsupportedCipherMode,
            ),
        ];
        for (mode, units, keyed, want) in refusals {
            assert_eq!(veto(&soc, &mut g, mode, units, keyed, 512), Some(want));
        }
        soc.accel.state = AccelPowerState::Awake;
        let refusals = [
            (true, 1, true, FallbackReason::BelowThreshold),
            (true, MIN_ROUTED_UNITS, false, FallbackReason::Disabled),
        ];
        for (mode, units, keyed, want) in refusals {
            assert_eq!(veto(&soc, &mut g, mode, units, keyed, 512), Some(want));
        }
        assert_eq!(g.state(), HealthState::Open);
        assert_eq!(g.stats.probes, probes);
        assert_eq!(g.stats.fallback_crypt_bytes, 0);

        // The governor is consulted only once every earlier check
        // passes — and that dispatch is the probe.
        assert_eq!(veto(&soc, &mut g, true, MIN_ROUTED_UNITS, true, 512), None);
        assert_eq!(g.state(), HealthState::HalfOpen);
        assert_eq!(g.stats.probes, probes + 1);
    }

    fn window(soc: &mut Soc, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        soc.dram.read(ACCEL_DMA_BASE, &mut out);
        out
    }

    #[test]
    fn abandoned_ops_leave_the_bounce_window_zeroed() {
        let input = vec![0xA5u8; 8192];
        for action in [
            FaultAction::AccelWedge { wedge_ns: u64::MAX },
            FaultAction::AccelCorrupt,
        ] {
            let mut soc = awake();
            let mut g = HealthGovernor::new(HealthConfig::default());
            soc.failpoints
                .arm(FaultPlan::at_site("accel.submit", 0, action));
            let op = dispatch(&mut soc, &g, &input).unwrap();
            assert_eq!(window(&mut soc, input.len()), input, "input staged");
            let outcome = retire(&mut soc, &mut g, op).unwrap();
            assert!(!matches!(outcome, WaitOutcome::Done { .. }), "{action:?}");
            assert!(
                window(&mut soc, input.len()).iter().all(|&b| b == 0),
                "{action:?} left bytes in the bounce window"
            );
            assert_eq!(g.stats.fallback_crypt_bytes, input.len() as u64);
            let abandoned = if matches!(outcome, WaitOutcome::TimedOut { .. }) {
                input.len() as u64
            } else {
                0
            };
            assert_eq!(g.stats.abandoned_bytes, abandoned);
        }
    }
}
