//! Deterministic fault injection for chaos-testing the cluster runtime.
//!
//! A [`FaultPlan`] is a seeded description of the chaos to inject: message
//! drops, delivery delays, duplicates, payload corruption, and a targeted
//! rank crash at a chosen phase. Installed via
//! [`Cluster::run_with`](crate::Cluster::run_with) (or the
//! [`run_cluster_with_faults`](crate::run_cluster_with_faults) shorthand),
//! each rank gets its own [`FaultInjector`] whose pseudo-random stream is
//! derived from `seed ⊕ rank` — decisions depend only on the plan, the
//! rank, and that rank's (deterministic) send sequence, never on thread
//! scheduling, so **identical seed + plan ⇒ identical injected events and
//! identical outcomes** (asserted by the determinism proptest).
//!
//! Message faults act at the *link layer* inside
//! [`Comm::try_send`](crate::Comm::try_send): a dropped or corrupted copy
//! consumes one retransmit attempt (with exponential backoff per
//! [`RetryPolicy`](crate::RetryPolicy)); duplicates and corrupt copies that
//! do reach the wire are filtered by the receiver via sequence numbers and
//! checksums. A crash is a rank-fatal event: the victim panics at the
//! chosen [`CrashSite`] and the launcher converts that into
//! [`RankOutcome::Crashed`](crate::RankOutcome::Crashed) while survivors
//! unblock with [`CommError::PeerFailed`](crate::CommError::PeerFailed).

use std::time::Duration;

use soifft_num::c64;

/// What the injector decides to do with one delivery attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the message normally.
    Deliver,
    /// Silently drop this copy (the link layer will retransmit).
    Drop,
    /// Delay delivery by the given duration, then deliver.
    Delay(Duration),
    /// Deliver the message twice (receiver must deduplicate).
    Duplicate,
    /// Deliver a bit-corrupted copy (receiver's checksum rejects it; the
    /// link layer retransmits).
    Corrupt,
}

/// Where an injected rank crash fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashSite {
    /// On entering the ghost (nearest-neighbour) exchange.
    Ghost,
    /// On entering any all-to-all collective.
    AllToAll,
    /// On entering a barrier.
    Barrier,
    /// After the rank's `n`-th successful send (fine-grained placement —
    /// e.g. mid-exchange).
    AfterSends(u64),
    /// On entering the named *compute* phase (e.g. `"segment-fft"`), via
    /// the pipeline's [`Comm::crash_point`](crate::Comm::crash_point)
    /// hooks — kills a rank between collectives, where only
    /// checkpoint/restart (not link-layer retry) can save the run.
    Phase(&'static str),
}

/// A compute-side buffer an injected bit flip targets.
///
/// These are the silent-data-corruption sites the link layer *provably
/// cannot catch*: wire checksums cover a payload only between the moment
/// the sender hashes it and the moment the receiver verifies it. A flip
/// that lands in a buffer before it is hashed (a convolution or FFT
/// output sitting in memory), after it is reassembled (a gathered
/// segment), or in a checkpoint image as it is written, passes every
/// link-layer check and yields a confidently wrong spectrum — unless the
/// pipeline's phase invariants (`soifft-core`'s `verify` module) catch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BitFlipSite {
    /// The output buffer of a rank's local FFT (the SOI block DFTs or a
    /// CT column/row FFT), flipped while it waits for the next phase.
    LocalFftBuffer,
    /// The SOI convolution output `u = W x`, flipped between the
    /// convolution and the block DFTs that consume it.
    ConvBuffer,
    /// A checkpoint snapshot, flipped as the image is written — *before*
    /// the store takes its FNV-1a checksum, so a later restore verifies
    /// clean and silently resumes from corrupt state.
    CheckpointImage,
    /// A reassembled segment on the receiving rank, flipped *after* the
    /// all-to-all delivered (and checksum-verified) every part.
    GatheredSegment,
}

/// A targeted compute-side bit flip (see [`BitFlipSite`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitFlipSpec {
    /// The rank whose buffer is flipped.
    pub rank: usize,
    /// Which buffer the flip lands in.
    pub site: BitFlipSite,
    /// Which bit of the chosen `f64` word is flipped (0–63). The word
    /// (and its real/imaginary half) is drawn from the injector's
    /// dedicated flip stream. Defaults to 62 — a high exponent bit, the
    /// worst case for the victim: one word's magnitude changes by orders
    /// of magnitude and the spectrum is grossly wrong everywhere.
    pub bit: u32,
    /// How many times the flip fires per rank incarnation. The default 1
    /// models a single upset (a localized re-execution then runs clean);
    /// `u32::MAX` models a hard fault that defeats every retry, driving
    /// the validation layer's bounded-budget escalation.
    pub count: u32,
}

/// A targeted rank crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// The rank to kill.
    pub rank: usize,
    /// Where in the communication schedule it dies.
    pub site: CrashSite,
    /// How many incarnations die (the rank crashes in epochs
    /// `0..count`, then runs clean — a repeated-crash schedule
    /// exercising the supervisor's restart budget). Plain,
    /// non-supervised launches only ever see epoch 0.
    pub count: u32,
}

/// A seeded, deterministic description of faults to inject.
///
/// Probabilities are per *delivery attempt*. `fault_limit` bounds how many
/// faulty attempts any single message can suffer before the injector lets
/// a clean copy through — keeping injected faults *transient* so the
/// bounded link-layer retransmit can absorb them. Set it at or above the
/// retry budget (e.g. [`FaultPlan::permanent`]) to model hard failures.
///
/// # Example
///
/// ```
/// use soifft_cluster::{CrashSite, FaultPlan};
/// let plan = FaultPlan::new(42)
///     .drop(0.2)
///     .corrupt(0.1)
///     .crash(2, CrashSite::AllToAll);
/// assert_eq!(plan.seed(), 42);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    delay_p: f64,
    delay: Duration,
    duplicate_p: f64,
    corrupt_p: f64,
    fault_limit: u32,
    only_rank: Option<usize>,
    crash: Option<CrashSpec>,
    flip: Option<BitFlipSpec>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults (builder entry point).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.0,
            delay_p: 0.0,
            delay: Duration::from_micros(200),
            duplicate_p: 0.0,
            corrupt_p: 0.0,
            fault_limit: 2,
            only_rank: None,
            crash: None,
            flip: None,
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drop each delivery attempt with probability `p`.
    pub fn drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.drop_p = p;
        self
    }

    /// Delay each delivery with probability `p` by `dur`.
    pub fn delay(mut self, p: f64, dur: Duration) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.delay_p = p;
        self.delay = dur;
        self
    }

    /// Duplicate each delivery with probability `p`.
    pub fn duplicate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.duplicate_p = p;
        self
    }

    /// Bit-corrupt each delivery attempt with probability `p`.
    pub fn corrupt(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.corrupt_p = p;
        self
    }

    /// Cap the number of faulty attempts per message at `limit` (after
    /// which the injector delivers cleanly). Default 2 — transient under
    /// the default 4-attempt [`RetryPolicy`](crate::RetryPolicy).
    pub fn fault_limit(mut self, limit: u32) -> Self {
        self.fault_limit = limit;
        self
    }

    /// Make message faults permanent: no per-message fault cap, so a
    /// `drop(1.0)` plan defeats every retransmit (models a severed link).
    pub fn permanent(mut self) -> Self {
        self.fault_limit = u32::MAX;
        self
    }

    /// Restrict message faults to sends *by* `rank` (crashes are always
    /// targeted separately).
    pub fn on_rank(mut self, rank: usize) -> Self {
        self.only_rank = Some(rank);
        self
    }

    /// Kill `rank` when it reaches `site`.
    pub fn crash(mut self, rank: usize, site: CrashSite) -> Self {
        self.crash = Some(CrashSpec {
            rank,
            site,
            count: 1,
        });
        self
    }

    /// Kill `rank` at `site` for its first `times` incarnations (it runs
    /// clean from epoch `times` on) — the repeated-crash schedule that
    /// exercises a supervisor's restart budget.
    pub fn crash_times(mut self, rank: usize, site: CrashSite, times: u32) -> Self {
        self.crash = Some(CrashSpec {
            rank,
            site,
            count: times,
        });
        self
    }

    /// Flip one bit of `rank`'s buffer at `site`, once, in epoch 0 (the
    /// default high-exponent bit 62 — see [`BitFlipSpec::bit`]).
    pub fn bit_flip(self, rank: usize, site: BitFlipSite) -> Self {
        self.bit_flip_times(rank, site, 1)
    }

    /// Flip one bit of `rank`'s buffer at `site` on its first `times`
    /// visits per incarnation. `u32::MAX` models a hard fault: every
    /// localized re-execution re-corrupts, so a `Recover` validation
    /// policy exhausts its retry budget and escalates.
    pub fn bit_flip_times(mut self, rank: usize, site: BitFlipSite, times: u32) -> Self {
        self.flip = Some(BitFlipSpec {
            rank,
            site,
            bit: 62,
            count: times,
        });
        self
    }

    /// Overrides which bit the configured flip targets (0–63; low mantissa
    /// bits make the corruption subtle, exponent bits make it gross).
    ///
    /// # Panics
    /// Panics if no flip is configured or `bit > 63`.
    pub fn flip_bit(mut self, bit: u32) -> Self {
        assert!(bit < 64, "bit index out of range");
        let spec = self.flip.as_mut().expect("configure a bit flip first");
        spec.bit = bit;
        self
    }

    /// Builds the per-rank injector for `rank` in a cluster of `size`
    /// (epoch 0 — the plain, non-supervised launch).
    pub fn injector_for(&self, rank: usize, size: usize) -> FaultInjector {
        self.injector_for_epoch(rank, size, 0)
    }

    /// Builds the per-rank injector for incarnation `epoch` of `rank`.
    ///
    /// The crash trigger is active only while `epoch < count` (so a
    /// respawned rank eventually survives), and the pseudo-random stream
    /// mixes the epoch in — each incarnation sees fresh-but-deterministic
    /// message faults. Epoch 0 is stream-identical to [`FaultPlan::injector_for`].
    pub fn injector_for_epoch(&self, rank: usize, size: usize, epoch: u64) -> FaultInjector {
        assert!(rank < size, "rank out of range");
        if let Some(c) = self.crash {
            assert!(c.rank < size, "crash target rank out of range");
        }
        let mut plan = self.clone();
        if plan.crash.is_some_and(|c| epoch >= u64::from(c.count)) {
            plan.crash = None;
        }
        // A bit flip is a single upset event: it fires (up to its
        // per-incarnation count) in epoch 0 only, so a supervised respawn
        // recomputes clean — mirroring how crash schedules expire.
        if epoch > 0 {
            plan.flip = None;
        }
        let seed = self.seed
            ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ epoch.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        FaultInjector {
            plan,
            rank,
            rng: SplitMix::new(seed),
            // An independent stream for flip word selection, so enabling a
            // flip never perturbs the link-fault decisions (and vice
            // versa) — the determinism proptest relies on this isolation.
            flip_rng: SplitMix::new(seed ^ 0xB5AD_4ECE_DA1C_E2A9),
            sends: 0,
            flips_fired: 0,
            events: FaultEvents::default(),
        }
    }
}

/// Counters of injected events on one rank (deterministic for a fixed
/// plan; useful for asserting a chaos run actually exercised faults).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultEvents {
    /// Delivery attempts dropped.
    pub drops: u64,
    /// Deliveries delayed.
    pub delays: u64,
    /// Deliveries duplicated.
    pub duplicates: u64,
    /// Delivery attempts corrupted.
    pub corruptions: u64,
    /// Compute-side bit flips applied ([`BitFlipSite`] sites).
    pub bit_flips: u64,
}

impl FaultEvents {
    /// Total injected events.
    pub fn total(&self) -> u64 {
        self.drops + self.delays + self.duplicates + self.corruptions + self.bit_flips
    }
}

/// One rank's deterministic fault source (derived from a [`FaultPlan`]).
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rank: usize,
    rng: SplitMix,
    flip_rng: SplitMix,
    sends: u64,
    flips_fired: u32,
    events: FaultEvents,
}

impl FaultInjector {
    /// Decides the fate of delivery attempt `attempt` (0-based) of this
    /// rank's next message. Draws from the deterministic stream in a fixed
    /// order regardless of which faults are enabled, so enabling one fault
    /// class does not perturb another's decisions.
    pub fn action(&mut self, attempt: u32) -> FaultAction {
        let (d, c, dup, del) = (
            self.rng.next_f64(),
            self.rng.next_f64(),
            self.rng.next_f64(),
            self.rng.next_f64(),
        );
        if self.plan.only_rank.is_some_and(|r| r != self.rank) {
            return FaultAction::Deliver;
        }
        if attempt >= self.plan.fault_limit {
            // Cap reached: guarantee forward progress under the retry
            // budget (faults stay transient).
            return FaultAction::Deliver;
        }
        if d < self.plan.drop_p {
            self.events.drops += 1;
            return FaultAction::Drop;
        }
        if c < self.plan.corrupt_p {
            self.events.corruptions += 1;
            return FaultAction::Corrupt;
        }
        if dup < self.plan.duplicate_p {
            self.events.duplicates += 1;
            return FaultAction::Duplicate;
        }
        if del < self.plan.delay_p {
            self.events.delays += 1;
            return FaultAction::Delay(self.plan.delay);
        }
        FaultAction::Deliver
    }

    /// Corrupts `data` in place (single deterministic bit flip).
    pub fn corrupt_payload(&mut self, data: &mut [c64]) {
        if data.is_empty() {
            return;
        }
        let i = (self.rng.next_u64() as usize) % data.len();
        data[i].re = f64::from_bits(data[i].re.to_bits() ^ 1);
    }

    /// True while the plan still has a bit flip pending for this rank at
    /// `site` (non-consuming — lets call sites skip defensive copies when
    /// no flip can fire).
    pub fn flip_planned(&self, site: BitFlipSite) -> bool {
        matches!(
            self.plan.flip,
            Some(spec) if spec.rank == self.rank
                && spec.site == site
                && self.flips_fired < spec.count
        )
    }

    /// Applies the planned bit flip to `data` if it targets this rank and
    /// `site` and its per-incarnation budget remains: one seeded word of
    /// `data` (real or imaginary half) gets bit [`BitFlipSpec::bit`]
    /// flipped. Returns the flipped element index, or `None` when nothing
    /// fired.
    pub fn apply_bit_flip(&mut self, site: BitFlipSite, data: &mut [c64]) -> Option<usize> {
        if !self.flip_planned(site) || data.is_empty() {
            return None;
        }
        let spec = self.plan.flip.expect("flip_planned implies a spec");
        let word = self.flip_rng.next_u64() as usize % (2 * data.len());
        let z = &mut data[word / 2];
        let half = if word.is_multiple_of(2) {
            &mut z.re
        } else {
            &mut z.im
        };
        *half = f64::from_bits(half.to_bits() ^ (1u64 << spec.bit));
        self.flips_fired += 1;
        self.events.bit_flips += 1;
        Some(word / 2)
    }

    /// Records a completed send (advances the [`CrashSite::AfterSends`]
    /// trigger).
    pub fn note_send(&mut self) {
        self.sends += 1;
    }

    /// True if this rank must crash now, given it just reached `site`
    /// (exact site match; [`CrashSite::AfterSends`] triggers are checked by
    /// [`FaultInjector::crash_due_sends`] instead).
    pub fn crash_due(&self, site: CrashSite) -> bool {
        match self.plan.crash {
            Some(c) if c.rank == self.rank => c.site == site,
            _ => false,
        }
    }

    /// True if this rank's [`CrashSite::AfterSends`] trigger has fired
    /// (checked by the send path after every successful delivery).
    pub fn crash_due_sends(&self) -> bool {
        matches!(
            self.plan.crash,
            Some(CrashSpec { rank, site: CrashSite::AfterSends(n), .. })
                if rank == self.rank && self.sends >= n
        )
    }

    /// The injected-event counters so far.
    pub fn events(&self) -> FaultEvents {
        self.events
    }

    /// The rank this injector belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }
}

/// SplitMix64 — tiny, seedable, good-enough generator for fault decisions.
#[derive(Clone, Debug)]
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_streams_are_deterministic() {
        let plan = FaultPlan::new(7).drop(0.3).corrupt(0.2).duplicate(0.1);
        let mut a = plan.injector_for(1, 4);
        let mut b = plan.injector_for(1, 4);
        for attempt in 0..200 {
            assert_eq!(a.action(attempt % 3), b.action(attempt % 3));
        }
        assert_eq!(a.events(), b.events());
        assert!(
            a.events().total() > 0,
            "plan with p>0 must inject something"
        );
    }

    #[test]
    fn ranks_get_independent_streams() {
        let plan = FaultPlan::new(7).drop(0.5);
        let mut a = plan.injector_for(0, 2);
        let mut b = plan.injector_for(1, 2);
        let sa: Vec<_> = (0..64).map(|_| a.action(0)).collect();
        let sb: Vec<_> = (0..64).map(|_| b.action(0)).collect();
        assert_ne!(sa, sb, "rank streams should differ");
    }

    #[test]
    fn fault_limit_guarantees_delivery() {
        let plan = FaultPlan::new(3).drop(1.0).fault_limit(2);
        let mut inj = plan.injector_for(0, 1);
        assert_eq!(inj.action(0), FaultAction::Drop);
        assert_eq!(inj.action(1), FaultAction::Drop);
        assert_eq!(inj.action(2), FaultAction::Deliver);
    }

    #[test]
    fn permanent_plan_never_relents() {
        let plan = FaultPlan::new(3).drop(1.0).permanent();
        let mut inj = plan.injector_for(0, 1);
        for attempt in 0..50 {
            assert_eq!(inj.action(attempt), FaultAction::Drop);
        }
    }

    #[test]
    fn only_rank_scopes_message_faults() {
        let plan = FaultPlan::new(9).drop(1.0).on_rank(1);
        let mut other = plan.injector_for(0, 2);
        assert_eq!(other.action(0), FaultAction::Deliver);
        let mut target = plan.injector_for(1, 2);
        assert_eq!(target.action(0), FaultAction::Drop);
    }

    #[test]
    fn crash_sites_trigger_for_target_only() {
        let plan = FaultPlan::new(1).crash(2, CrashSite::AllToAll);
        let victim = plan.injector_for(2, 4);
        let bystander = plan.injector_for(1, 4);
        assert!(victim.crash_due(CrashSite::AllToAll));
        assert!(!victim.crash_due(CrashSite::Barrier));
        assert!(!bystander.crash_due(CrashSite::AllToAll));
    }

    #[test]
    fn after_sends_crash_counts_sends() {
        let plan = FaultPlan::new(1).crash(0, CrashSite::AfterSends(2));
        let mut inj = plan.injector_for(0, 2);
        assert!(!inj.crash_due_sends());
        inj.note_send();
        assert!(!inj.crash_due_sends());
        inj.note_send();
        assert!(inj.crash_due_sends());
        assert!(
            !inj.crash_due(CrashSite::Barrier),
            "site triggers stay independent"
        );
    }

    #[test]
    fn phase_crash_site_matches_by_name() {
        let plan = FaultPlan::new(4).crash(1, CrashSite::Phase("segment-fft"));
        let victim = plan.injector_for(1, 4);
        assert!(victim.crash_due(CrashSite::Phase("segment-fft")));
        assert!(!victim.crash_due(CrashSite::Phase("convolution")));
        assert!(!victim.crash_due(CrashSite::AllToAll));
    }

    #[test]
    fn crash_schedule_expires_after_count_epochs() {
        let plan = FaultPlan::new(4).crash_times(2, CrashSite::AllToAll, 2);
        for epoch in 0..2 {
            let inj = plan.injector_for_epoch(2, 4, epoch);
            assert!(
                inj.crash_due(CrashSite::AllToAll),
                "epoch {epoch} still crashes"
            );
        }
        let healed = plan.injector_for_epoch(2, 4, 2);
        assert!(!healed.crash_due(CrashSite::AllToAll), "epoch 2 runs clean");
        // The AfterSends trigger expires the same way.
        let plan = FaultPlan::new(4).crash(0, CrashSite::AfterSends(0));
        let mut inj = plan.injector_for_epoch(0, 2, 1);
        inj.note_send();
        assert!(!inj.crash_due_sends());
    }

    #[test]
    fn epoch_zero_stream_matches_plain_injector() {
        let plan = FaultPlan::new(11).drop(0.4).corrupt(0.2);
        let mut plain = plan.injector_for(3, 4);
        let mut epoch0 = plan.injector_for_epoch(3, 4, 0);
        for attempt in 0..128 {
            assert_eq!(plain.action(attempt % 3), epoch0.action(attempt % 3));
        }
        let mut epoch1 = plan.injector_for_epoch(3, 4, 1);
        let s0: Vec<_> = (0..64).map(|_| plain.action(0)).collect();
        let s1: Vec<_> = (0..64).map(|_| epoch1.action(0)).collect();
        assert_ne!(s0, s1, "incarnations should see fresh fault streams");
    }

    #[test]
    fn bit_flip_fires_once_on_target_rank_and_site() {
        let plan = FaultPlan::new(13).bit_flip(1, BitFlipSite::ConvBuffer);
        let mut victim = plan.injector_for(1, 4);
        let mut bystander = plan.injector_for(0, 4);
        let orig: Vec<c64> = (0..32).map(|i| c64::new(i as f64 + 1.0, -1.0)).collect();

        let mut data = orig.clone();
        assert!(bystander
            .apply_bit_flip(BitFlipSite::ConvBuffer, &mut data)
            .is_none());
        assert!(victim
            .apply_bit_flip(BitFlipSite::LocalFftBuffer, &mut data)
            .is_none());
        assert_eq!(data, orig, "wrong rank/site must not touch the buffer");

        let idx = victim
            .apply_bit_flip(BitFlipSite::ConvBuffer, &mut data)
            .expect("flip fires");
        let diffs = orig.iter().zip(&data).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1, "exactly one element flipped");
        assert_ne!(data[idx], orig[idx]);
        assert_eq!(victim.events().bit_flips, 1);

        // Budget spent: a re-execution of the phase runs clean.
        let mut again = orig.clone();
        assert!(victim
            .apply_bit_flip(BitFlipSite::ConvBuffer, &mut again)
            .is_none());
        assert!(!victim.flip_planned(BitFlipSite::ConvBuffer));
    }

    #[test]
    fn bit_flip_targets_the_requested_bit() {
        let plan = FaultPlan::new(13)
            .bit_flip(0, BitFlipSite::GatheredSegment)
            .flip_bit(3);
        let mut inj = plan.injector_for(0, 1);
        let orig: Vec<c64> = (0..8).map(|i| c64::new(i as f64, i as f64)).collect();
        let mut data = orig.clone();
        let idx = inj
            .apply_bit_flip(BitFlipSite::GatheredSegment, &mut data)
            .unwrap();
        let xor = (orig[idx].re.to_bits() ^ data[idx].re.to_bits())
            | (orig[idx].im.to_bits() ^ data[idx].im.to_bits());
        assert_eq!(xor, 1 << 3, "exactly bit 3 of one half flipped");
    }

    #[test]
    fn permanent_bit_flip_defeats_reexecution() {
        let plan = FaultPlan::new(21).bit_flip_times(0, BitFlipSite::LocalFftBuffer, u32::MAX);
        let mut inj = plan.injector_for(0, 2);
        let mut data: Vec<c64> = (0..4).map(|i| c64::new(i as f64, 0.0)).collect();
        for _ in 0..8 {
            assert!(inj
                .apply_bit_flip(BitFlipSite::LocalFftBuffer, &mut data)
                .is_some());
        }
        assert_eq!(inj.events().bit_flips, 8);
    }

    #[test]
    fn bit_flip_expires_after_epoch_zero() {
        let plan = FaultPlan::new(5).bit_flip(2, BitFlipSite::CheckpointImage);
        let mut respawned = plan.injector_for_epoch(2, 4, 1);
        let mut data = vec![c64::new(1.0, 2.0); 4];
        assert!(!respawned.flip_planned(BitFlipSite::CheckpointImage));
        assert!(respawned
            .apply_bit_flip(BitFlipSite::CheckpointImage, &mut data)
            .is_none());
    }

    #[test]
    fn bit_flip_word_choice_is_deterministic() {
        let plan = FaultPlan::new(77).bit_flip(0, BitFlipSite::ConvBuffer);
        let run = || {
            let mut inj = plan.injector_for(0, 2);
            let mut data = vec![c64::new(1.5, -0.5); 64];
            inj.apply_bit_flip(BitFlipSite::ConvBuffer, &mut data)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flip_stream_does_not_perturb_link_fault_stream() {
        let base = FaultPlan::new(7).drop(0.3).corrupt(0.2);
        let with_flip = base.clone().bit_flip(1, BitFlipSite::ConvBuffer);
        let mut a = base.injector_for(1, 4);
        let mut b = with_flip.injector_for(1, 4);
        let mut data = vec![c64::new(1.0, 1.0); 16];
        b.apply_bit_flip(BitFlipSite::ConvBuffer, &mut data);
        for attempt in 0..128 {
            assert_eq!(a.action(attempt % 3), b.action(attempt % 3));
        }
    }

    #[test]
    fn corrupt_payload_flips_exactly_one_bit() {
        let plan = FaultPlan::new(5).corrupt(1.0);
        let mut inj = plan.injector_for(0, 1);
        let orig: Vec<c64> = (0..16).map(|i| c64::new(i as f64, 1.0)).collect();
        let mut data = orig.clone();
        inj.corrupt_payload(&mut data);
        let diffs = orig.iter().zip(&data).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
    }
}
