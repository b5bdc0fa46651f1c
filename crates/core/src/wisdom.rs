//! Process-wide execution-knob wisdom consulted at plan construction.
//!
//! The auto-tuner (`soifft-tune`) measures candidate execution plans and
//! installs the winners here; [`crate::SoiFft::with_window`] (and
//! [`crate::SoiFft::with_precision`], whose key includes the precision)
//! consult the registry so every subsequent construction of the same shape
//! — serving engines, benches, tests — starts from the best-known
//! execution knobs instead of the static defaults. The registry deals only
//! in **execution** knobs ([`ConvStrategy`], [`ExchangePlan`], front-end
//! fusion): it never changes the transform's *shape* (`S`, `µ`, `B`),
//! because callers size their buffers and segment counts from the
//! [`crate::SoiParams`] they pass in — a silently substituted shape would
//! break `with_segment_counts` and every output-length contract. Shape
//! tuning is exposed only through the tuner's own API, which hands back a
//! new `SoiParams` for the caller to adopt explicitly.
//!
//! Lookups are cheap (one mutex, one hash) and construction-time only;
//! the hit/miss counters let tests assert a wisdom-warm path (serve
//! startup after a tuning run) planned without probing or defaulting.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::conv::ConvStrategy;
use crate::pipeline::{ExchangePlan, Precision};

/// The shape a wisdom entry is keyed by: transform size, rank count and
/// back-half precision. (The machine fingerprint is checked at wisdom
/// *load* time by the tuner — entries from a foreign machine never reach
/// this in-process registry.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WisdomKey {
    /// Total transform size `N`.
    pub n: usize,
    /// Rank count `P`.
    pub procs: usize,
    /// Back-half precision.
    pub precision: Precision,
}

/// Tuned execution knobs for one [`WisdomKey`] — exactly the builder
/// calls [`crate::SoiFft`] accepts after construction, never the shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TunedExec {
    /// Convolution strategy (ignored when `fused` is set: fusion forces
    /// the row-major form).
    pub strategy: ConvStrategy,
    /// All-to-all plan.
    pub exchange: ExchangePlan,
    /// Whether to fuse the block DFTs into the convolution sweep.
    pub fused: bool,
}

/// Registry + counters behind one lock.
#[derive(Default)]
struct Registry {
    entries: HashMap<WisdomKey, TunedExec>,
    hits: u64,
    misses: u64,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(Mutex::default)
}

/// Installs (or replaces) the tuned execution knobs for `key`.
pub fn install(key: WisdomKey, exec: TunedExec) {
    registry().lock().unwrap().entries.insert(key, exec);
}

/// The tuned knobs for `key`, if a tuning run installed any. Counts a hit
/// or miss either way.
pub fn lookup(key: &WisdomKey) -> Option<TunedExec> {
    let mut reg = registry().lock().unwrap();
    let found = reg.entries.get(key).copied();
    match found {
        Some(_) => reg.hits += 1,
        None => reg.misses += 1,
    }
    found
}

/// True when `key` has an entry, without touching the hit/miss counters
/// (observability probes use this; plan construction uses [`lookup`]).
pub fn contains(key: &WisdomKey) -> bool {
    registry().lock().unwrap().entries.contains_key(key)
}

/// Number of installed entries.
pub fn len() -> usize {
    registry().lock().unwrap().entries.len()
}

/// Registry lookups that found an entry since process start.
pub fn hits() -> u64 {
    registry().lock().unwrap().hits
}

/// Registry lookups that found nothing (constructions that ran on the
/// static defaults).
pub fn misses() -> u64 {
    registry().lock().unwrap().misses
}

/// Drops every installed entry (counters are preserved). Tests use this
/// to isolate wisdom scenarios; production code has no reason to forget.
pub fn clear() {
    registry().lock().unwrap().entries.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: usize) -> WisdomKey {
        WisdomKey {
            n,
            procs: 2,
            precision: Precision::F64,
        }
    }

    #[test]
    fn install_lookup_roundtrip_and_counters() {
        let k = key(1 << 9); // distinctive size: no other test installs it
        assert!(!contains(&k));
        let miss0 = misses();
        assert!(lookup(&k).is_none());
        assert_eq!(misses(), miss0 + 1);

        let exec = TunedExec {
            strategy: ConvStrategy::RowMajor,
            exchange: ExchangePlan::Overlapped,
            fused: true,
        };
        install(k, exec);
        assert!(contains(&k));
        let hit0 = hits();
        assert_eq!(lookup(&k), Some(exec));
        assert_eq!(hits(), hit0 + 1);

        // Precision is part of the key.
        let k32 = WisdomKey {
            precision: Precision::F32,
            ..k
        };
        assert!(!contains(&k32));
    }
}
