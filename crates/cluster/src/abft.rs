//! The stage-boundary hooks both distributed executors run — the SOI
//! pipeline in `soifft-core` and the Cooley–Tukey baseline in
//! `soifft-ct` — so each defense exists once:
//!
//! * [`guarded`] — the algorithm-based fault tolerance (ABFT) loop around
//!   a phase buffer: inject any planned flip after the caller's guard was
//!   taken, re-verify, repair by re-executing the phase within
//!   [`RETRY_BUDGET`], escalate as [`CommError::SilentCorruption`];
//! * [`restore`] / [`save`] — checkpoint restore-or-run-then-save under a
//!   [`RecoveryCtx`], with write-time read-back of the stored checksum;
//! * [`energy`] / [`parseval_ok`] / [`energy_tolerance`] — the Parseval
//!   invariant both executors guard their local FFT stages with.
//!
//! All of them are no-ops (beyond one branch) for the configuration they
//! do not apply to: validation [`Off`](ValidationPolicy::Off), no
//! recovery context, no fault plan.

use soifft_num::c64;

use crate::{checksum, BitFlipSite, Comm, CommError, RecoveryCtx, ValidationPolicy};

/// Localized re-execution attempts a `Recover` pipeline makes per detected
/// corruption before escalating to [`CommError::SilentCorruption`]. Two
/// retries distinguish a transient flip (first re-execution already yields
/// a clean invariant) from stuck-at corruption (every re-execution
/// re-fails), without letting a permanently faulty rank spin.
pub const RETRY_BUDGET: u32 = 2;

/// Total energy `Σ |z|²` of a buffer — the quantity conserved (up to the
/// transform length factor) by an unnormalized DFT.
pub fn energy(data: &[c64]) -> f64 {
    data.iter().map(|z| z.norm_sqr()).sum()
}

/// Parseval check across an unnormalized `len`-point DFT (or a batch of
/// them over the same total data, or one followed by a unit-modulus
/// twiddle): accepts when the post-transform energy `e_out` matches
/// `len · e_in` to within relative tolerance `tol`. A non-finite `e_out`
/// (a flip that produced NaN/Inf) always rejects.
pub fn parseval_ok(e_in: f64, e_out: f64, len: usize, tol: f64) -> bool {
    let expect = e_in * len as f64;
    let scale = expect.abs().max(f64::MIN_POSITIVE);
    e_out.is_finite() && ((e_out - expect) / scale).abs() <= tol
}

/// Relative tolerance for an energy-conservation (Parseval) check across an
/// unnormalized FFT of length `len`.
///
/// In exact arithmetic an unnormalized `len`-point DFT multiplies total
/// energy by exactly `len`; in floating point the relative drift grows with
/// the number of butterfly stages, roughly `ε·log2(len)` with a modest
/// constant. The returned bound is ~two orders above worst-case roundoff so
/// a healthy transform never trips it, yet ~ten orders below the energy
/// shift of a single high-exponent bit flip, which it therefore always
/// catches.
pub fn energy_tolerance(len: usize) -> f64 {
    let stages = (len.max(2) as f64).log2();
    1e-12 * stages
}

/// ABFT hook for a phase output held in `buf` — the detection model
/// for memory corruption that never crosses a wire. The caller takes its
/// guard (a checksum, an input energy) the moment the buffer is produced;
/// any planned `site` flip is injected here, *after* the guard, and
/// `intact` re-verifies before the next phase consumes the buffer. Under
/// `Recover` a violation re-executes only this phase (`redo`), up to
/// [`RETRY_BUDGET`] times, before escalating as
/// [`CommError::SilentCorruption`]. Records `sdc-verify` / `sdc-repair`
/// spans and the ledger's SDC counters.
pub fn guarded(
    comm: &mut Comm,
    validation: ValidationPolicy,
    site: BitFlipSite,
    buf: &mut [c64],
    intact: impl Fn(&[c64]) -> bool,
    mut redo: impl FnMut(&mut [c64]),
) -> Result<(), CommError> {
    comm.inject_bit_flip(site, buf);
    if !validation.is_on() {
        return Ok(());
    }
    comm.stats_mut().span_open("sdc-verify");
    let mut attempts = 0u32;
    let verdict = loop {
        if intact(buf) {
            break Ok(());
        }
        // Re-evaluate before acting: a disturbed invariant *evaluation*
        // over clean data is a detector false positive, not data
        // corruption.
        if intact(buf) {
            comm.stats_mut().note_sdc_false_positive();
            break Ok(());
        }
        comm.stats_mut().note_sdc_detected();
        if !validation.recovers() || attempts >= RETRY_BUDGET {
            break Err(silent_corruption(comm));
        }
        attempts += 1;
        comm.stats_mut().span_open("sdc-repair");
        redo(buf);
        // A stuck-at fault corrupts the re-execution too.
        comm.inject_bit_flip(site, buf);
        comm.stats_mut().span_close("sdc-repair");
    };
    if verdict.is_ok() && attempts > 0 {
        comm.stats_mut().note_sdc_repaired();
    }
    comm.stats_mut().span_close("sdc-verify");
    verdict
}

/// Checkpoint hook, restore side: this rank's snapshot of `phase` in
/// `ckpt`'s store. Fails with [`CommError::CheckpointCorrupt`] when there
/// is no recovery context or the store holds no intact snapshot — a
/// stage that can also recompute takes `.ok()`, a resume that cannot
/// proceed without the state propagates it.
pub fn restore(
    comm: &mut Comm,
    ckpt: Option<&RecoveryCtx>,
    phase: &'static str,
) -> Result<Vec<c64>, CommError> {
    let rank = comm.rank();
    let Some(ctx) = ckpt else {
        return Err(CommError::CheckpointCorrupt { rank });
    };
    comm.stats_mut().span_open("checkpoint-restore");
    let result = ctx.store().restore(rank, phase);
    comm.stats_mut().span_close("checkpoint-restore");
    result.map_err(|_| CommError::CheckpointCorrupt { rank })
}

/// Checkpoint hook, save side (a no-op without a recovery context), with
/// write-time verification: when validation is on, the committed checksum
/// is read back and compared against the *live* buffer. This catches a
/// planned [`BitFlipSite::CheckpointImage`] flip that landed on the
/// snapshot image before the store hashed it: such an image is
/// self-consistent, so the store's restore-time check (and its
/// commit-time scrub) can never see it. Under `Recover` a flagged save is
/// redone from the live buffer, within [`RETRY_BUDGET`].
pub fn save(
    comm: &mut Comm,
    ckpt: Option<&RecoveryCtx>,
    validation: ValidationPolicy,
    phase: &'static str,
    data: &[c64],
) -> Result<(), CommError> {
    let Some(ctx) = ckpt else { return Ok(()) };
    let (store, epoch, rank) = (ctx.store(), ctx.epoch(), comm.rank());
    comm.stats_mut().span_open("checkpoint-save");
    let mut attempts = 0u32;
    let verdict = loop {
        if comm.flip_planned(BitFlipSite::CheckpointImage) {
            // Flip a private copy so the planned fault corrupts the
            // stored bytes, not the live pipeline buffer.
            let mut image = data.to_vec();
            comm.inject_bit_flip(BitFlipSite::CheckpointImage, &mut image);
            store.save(rank, phase, epoch, &image);
        } else {
            store.save(rank, phase, epoch, data);
        }
        if !validation.is_on() || store.stored_checksum(rank, phase) == Some(checksum(data)) {
            break Ok(());
        }
        comm.stats_mut().note_sdc_detected();
        if !validation.recovers() || attempts >= RETRY_BUDGET {
            break Err(silent_corruption(comm));
        }
        attempts += 1;
    };
    if verdict.is_ok() && attempts > 0 {
        comm.stats_mut().note_sdc_repaired();
    }
    comm.stats_mut().span_close("checkpoint-save");
    verdict
}

/// This rank's phase-level [`CommError::SilentCorruption`].
fn silent_corruption(comm: &Comm) -> CommError {
    CommError::SilentCorruption {
        rank: comm.rank(),
        segment: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parseval_rejects_nan_energy() {
        assert!(!parseval_ok(1.0, f64::NAN, 8, 1e-9));
        assert!(!parseval_ok(1.0, f64::INFINITY, 8, 1e-9));
    }

    #[test]
    fn energy_tolerance_scales_with_depth() {
        assert!(energy_tolerance(1 << 16) > energy_tolerance(1 << 4));
    }
}
