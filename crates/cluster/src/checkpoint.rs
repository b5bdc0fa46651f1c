//! In-memory checkpoint store for supervised cluster runs.
//!
//! A [`CheckpointStore`] holds per-rank, per-phase snapshots of pipeline
//! state (the SOI phase boundaries: `ghost` / `convolution` /
//! `segment-fft` / `all-to-all`; the CT baseline uses its own names).
//! Each snapshot is tagged with the epoch that produced it and carries an
//! FNV-1a checksum ([`checksum`], the same function the wire layer uses)
//! so a restore can detect corruption instead of silently recomputing
//! from bad state.
//!
//! A phase **commits globally** once *all* ranks have saved it; committed
//! phases are the resume points a respawned rank may rejoin at (the
//! supervisor freezes the committed list per epoch so every rank makes
//! the same collective resume decision). When a phase commits, snapshots
//! of *earlier-committed* phases are pruned — the store never holds more
//! than the active recovery frontier plus the phase in flight.
//!
//! The store is shared (`Arc`) across epochs and rank incarnations, and
//! all methods take `&self`; internal state is mutex-protected.
//!
//! # Disk persistence
//!
//! [`CheckpointStore::persistent`] opens the store in **disk mode**: the
//! directory is the single source of truth, so snapshots survive full
//! process death (the in-process store dies with its process, which is
//! exactly what the multi-process transport's `kill -9` chaos needs to
//! survive). Every property the in-memory store enforces has a disk
//! counterpart:
//!
//! * **Atomicity** — images are written to a temp file and `rename`d
//!   into place, so a crash mid-write can never leave a half-written
//!   image under the live name (readers see the old image or the new
//!   one, nothing in between).
//! * **Integrity** — each image carries a magic, the producing epoch,
//!   and the payload's FNV-1a checksum; restores re-verify, and opening
//!   the store scrubs every image on load, quarantining (removing)
//!   corrupt ones so they read as *missing*, never as valid state.
//! * **Global commit** — a phase commits when all `parties` image files
//!   exist; the commit is recorded as an ordered `commit-NNNN-<phase>`
//!   marker file created with `create_new` (so concurrent committers
//!   race safely), and images of earlier-committed phases are pruned.
//!
//! Separate OS processes sharing the directory each open their own
//! `CheckpointStore`; commit state lives in the marker files, so every
//! process sees the same resume frontier.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use soifft_num::c64;

use crate::resilience::checksum;

/// Interns a runtime phase name (e.g. parsed from a checkpoint file
/// name) into the `&'static str` world the store's API speaks.
fn intern(name: &str) -> &'static str {
    static REGISTRY: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let reg = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut g = reg.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&s) = g.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    g.insert(name.to_string(), leaked);
    leaked
}

/// Magic prefix of a checkpoint image file (versioned).
const IMAGE_MAGIC: &[u8; 8] = b"SOICKPT1";

fn image_name(rank: usize, phase: &str) -> String {
    format!("r{rank}-{phase}.ckpt")
}

/// A decoded checkpoint image file.
struct DiskImage {
    epoch: u64,
    stored_checksum: u64,
    data: Vec<c64>,
}

fn encode_image(epoch: u64, sum: u64, data: &[c64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(32 + data.len() * 16);
    bytes.extend_from_slice(IMAGE_MAGIC);
    bytes.extend_from_slice(&epoch.to_le_bytes());
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes.extend_from_slice(&(data.len() as u64).to_le_bytes());
    for z in data {
        bytes.extend_from_slice(&z.re.to_bits().to_le_bytes());
        bytes.extend_from_slice(&z.im.to_bits().to_le_bytes());
    }
    bytes
}

/// Reads and structurally validates an image file (`None` when the file
/// is unreadable, truncated, or not an image — payload *checksum*
/// verification is the caller's, so corrupt-vs-missing stays
/// distinguishable).
fn read_image(path: &Path) -> Option<DiskImage> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() < 32 || bytes[..8] != IMAGE_MAGIC[..] {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let epoch = word(8);
    let stored_checksum = word(16);
    let len = word(24) as usize;
    if bytes.len() != 32 + len.checked_mul(16)? {
        return None;
    }
    let data = (0..len)
        .map(|i| {
            let at = 32 + i * 16;
            c64::new(f64::from_bits(word(at)), f64::from_bits(word(at + 8)))
        })
        .collect();
    Some(DiskImage {
        epoch,
        stored_checksum,
        data,
    })
}

/// The committed phases recorded in `dir`'s marker files, in commit
/// (sequence) order.
fn disk_committed(dir: &Path) -> Vec<(u32, &'static str)> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("commit-") else {
            continue;
        };
        let Some((seq, phase)) = rest.split_once('-') else {
            continue;
        };
        if let Ok(seq) = seq.parse::<u32>() {
            out.push((seq, intern(phase)));
        }
    }
    out.sort();
    out
}

/// Why a snapshot could not be restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// No snapshot exists for this `(rank, phase)`.
    Missing {
        /// The rank whose snapshot was requested.
        rank: usize,
        /// The requested phase.
        phase: &'static str,
    },
    /// The stored data no longer matches its FNV-1a checksum.
    Corrupt {
        /// The rank whose snapshot is corrupt.
        rank: usize,
        /// The corrupt phase.
        phase: &'static str,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Missing { rank, phase } => {
                write!(f, "no checkpoint for rank {rank} at phase {phase:?}")
            }
            CheckpointError::Corrupt { rank, phase } => {
                write!(
                    f,
                    "checkpoint for rank {rank} at phase {phase:?} failed its checksum"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One epoch-tagged, checksummed snapshot.
#[derive(Clone, Debug)]
struct Snapshot {
    epoch: u64,
    checksum: u64,
    data: Vec<c64>,
}

#[derive(Default)]
struct Inner {
    snaps: HashMap<(usize, &'static str), Snapshot>,
    /// Phases that have committed globally, in commit order.
    committed: Vec<&'static str>,
    saves: u64,
    pruned: u64,
    /// When set, a phase is re-verified against its checksums before it
    /// may commit (see [`CheckpointStore::enable_scrub_on_commit`]).
    scrub_on_commit: bool,
    scrub_failures: u64,
}

/// Shared per-run checkpoint store (see module docs).
pub struct CheckpointStore {
    parties: usize,
    inner: Mutex<Inner>,
    /// When set, this directory — not the in-memory map — is the source
    /// of truth for snapshots and commit state (disk mode).
    disk: Option<PathBuf>,
}

impl CheckpointStore {
    /// A store for a cluster of `parties` ranks (a phase commits once all
    /// `parties` ranks have saved it).
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "need at least one party");
        CheckpointStore {
            parties,
            inner: Mutex::new(Inner::default()),
            disk: None,
        }
    }

    /// Opens a **disk-mode** store rooted at `dir` (created if absent):
    /// snapshots and commit markers live as files and survive process
    /// death, so a respawned OS process resumes from exactly what its
    /// predecessor committed. Opening scrubs every existing image —
    /// half-written temp files are swept and images failing their
    /// checksum are quarantined (removed, counted in
    /// [`scrub_failures`](Self::scrub_failures)) so they read back as
    /// *missing* rather than as valid state.
    ///
    /// # Errors
    /// Propagates directory creation / listing failures.
    pub fn persistent(parties: usize, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        assert!(parties >= 1, "need at least one party");
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut scrub_failures = 0u64;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with('.') && name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            } else if name.starts_with('r') && name.ends_with(".ckpt") {
                let ok = read_image(&entry.path())
                    .is_some_and(|img| checksum(&img.data) == img.stored_checksum);
                if !ok {
                    let _ = fs::remove_file(entry.path());
                    scrub_failures += 1;
                }
            }
        }
        let store = CheckpointStore {
            parties,
            inner: Mutex::new(Inner::default()),
            disk: Some(dir),
        };
        store.lock().scrub_failures = scrub_failures;
        Ok(store)
    }

    /// The number of ranks whose saves commit a phase.
    pub fn parties(&self) -> usize {
        self.parties
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn image_path(&self, dir: &Path, rank: usize, phase: &str) -> PathBuf {
        let _ = self;
        dir.join(image_name(rank, phase))
    }

    /// Disk-mode save: atomic image write, then the global commit check
    /// against what is actually on disk (other parties may live in other
    /// OS processes — the marker files are the only shared commit state).
    fn save_disk(&self, dir: &Path, rank: usize, phase: &'static str, epoch: u64, data: &[c64]) {
        let sum = checksum(data);
        let tmp = dir.join(format!(".r{rank}-{phase}.tmp"));
        let bytes = encode_image(epoch, sum, data);
        // Durability over liveness: a rank that cannot persist its state
        // must not keep computing past the checkpoint, so a write failure
        // kills it (the supervisor treats that as a rank death).
        fs::write(&tmp, &bytes).expect("checkpoint image write failed");
        fs::rename(&tmp, self.image_path(dir, rank, phase)).expect("checkpoint rename failed");
        {
            let mut g = self.lock();
            g.saves += 1;
        }
        let committed = disk_committed(dir);
        if committed.iter().any(|&(_, ph)| ph == phase) {
            return;
        }
        let all_saved = (0..self.parties).all(|r| self.image_path(dir, r, phase).exists());
        if !all_saved {
            return;
        }
        if self.lock().scrub_on_commit {
            let failures = (0..self.parties)
                .filter(|&r| {
                    read_image(&self.image_path(dir, r, phase))
                        .is_none_or(|img| checksum(&img.data) != img.stored_checksum)
                })
                .count() as u64;
            if failures > 0 {
                self.lock().scrub_failures += failures;
                return;
            }
        }
        // Claim the next free marker sequence number; `create_new` makes
        // concurrent committers (possibly in different processes) race
        // safely — on collision, re-check whether someone else already
        // committed this phase, else try the next slot.
        let mut seq = committed.len() as u32;
        loop {
            let marker = dir.join(format!("commit-{seq:04}-{phase}"));
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&marker)
            {
                Ok(_) => break,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if disk_committed(dir).iter().any(|&(_, ph)| ph == phase) {
                        return;
                    }
                    seq += 1;
                }
                Err(_) => return,
            }
        }
        // Prune images of phases committed before this one (the new
        // commit supersedes them as resume points).
        let mut pruned = 0u64;
        for &(_, ph) in &committed {
            for r in 0..self.parties {
                if fs::remove_file(self.image_path(dir, r, ph)).is_ok() {
                    pruned += 1;
                }
            }
        }
        self.lock().pruned += pruned;
    }

    /// Saves `rank`'s snapshot of `phase` produced in `epoch`, replacing
    /// any earlier snapshot for the pair. When this save is the last of
    /// the `parties` ranks, the phase commits and every snapshot of
    /// phases committed *before* it is pruned.
    pub fn save(&self, rank: usize, phase: &'static str, epoch: u64, data: &[c64]) {
        assert!(rank < self.parties, "rank out of range");
        if let Some(dir) = self.disk.clone() {
            return self.save_disk(&dir, rank, phase, epoch, data);
        }
        let snap = Snapshot {
            epoch,
            checksum: checksum(data),
            data: data.to_vec(),
        };
        let mut g = self.lock();
        g.snaps.insert((rank, phase), snap);
        g.saves += 1;
        let all_saved = (0..self.parties).all(|r| g.snaps.contains_key(&(r, phase)));
        if all_saved && g.scrub_on_commit {
            // Scrub pass: a snapshot flipped in store memory since its save
            // is caught *now*, at write/commit time — the phase stays
            // uncommitted (never becomes a resume point) until the owning
            // rank re-saves clean data.
            let bad = (0..self.parties).filter(|&r| {
                let snap = &g.snaps[&(r, phase)];
                checksum(&snap.data) != snap.checksum
            });
            let failures = bad.count() as u64;
            if failures > 0 {
                g.scrub_failures += failures;
                return;
            }
        }
        if all_saved && !g.committed.contains(&phase) {
            g.committed.push(phase);
            // Prune everything superseded by the new commit frontier.
            let keep_from = g.committed.len() - 1;
            let stale: Vec<&'static str> = g.committed[..keep_from].to_vec();
            for ph in stale {
                for r in 0..self.parties {
                    if g.snaps.remove(&(r, ph)).is_some() {
                        g.pruned += 1;
                    }
                }
            }
        }
    }

    /// Restores `rank`'s snapshot of `phase`, verifying its checksum.
    ///
    /// # Errors
    /// [`CheckpointError::Missing`] if nothing was saved,
    /// [`CheckpointError::Corrupt`] if the data fails verification.
    pub fn restore(&self, rank: usize, phase: &'static str) -> Result<Vec<c64>, CheckpointError> {
        if let Some(dir) = &self.disk {
            let path = self.image_path(dir, rank, phase);
            if !path.exists() {
                return Err(CheckpointError::Missing { rank, phase });
            }
            let img = read_image(&path).ok_or(CheckpointError::Corrupt { rank, phase })?;
            if checksum(&img.data) != img.stored_checksum {
                return Err(CheckpointError::Corrupt { rank, phase });
            }
            return Ok(img.data);
        }
        let g = self.lock();
        let snap = g
            .snaps
            .get(&(rank, phase))
            .ok_or(CheckpointError::Missing { rank, phase })?;
        if checksum(&snap.data) != snap.checksum {
            return Err(CheckpointError::Corrupt { rank, phase });
        }
        Ok(snap.data.clone())
    }

    /// Verifies every live snapshot against its stored FNV-1a checksum
    /// (without waiting for a restore to need it). Returns the number of
    /// snapshots verified, or the first corruption found.
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] naming the first bad `(rank, phase)`,
    /// in deterministic (sorted) order.
    pub fn scrub(&self) -> Result<usize, CheckpointError> {
        if let Some(dir) = &self.disk {
            let mut images: Vec<(usize, &'static str)> = self
                .disk_images(dir)
                .into_iter()
                .map(|(rank, phase, _)| (rank, phase))
                .collect();
            images.sort();
            for &(rank, phase) in &images {
                let ok = read_image(&self.image_path(dir, rank, phase))
                    .is_some_and(|img| checksum(&img.data) == img.stored_checksum);
                if !ok {
                    return Err(CheckpointError::Corrupt { rank, phase });
                }
            }
            return Ok(images.len());
        }
        let g = self.lock();
        let mut keys: Vec<&(usize, &'static str)> = g.snaps.keys().collect();
        keys.sort();
        for &&(rank, phase) in &keys {
            let snap = &g.snaps[&(rank, phase)];
            if checksum(&snap.data) != snap.checksum {
                return Err(CheckpointError::Corrupt { rank, phase });
            }
        }
        Ok(keys.len())
    }

    /// Turns on the scrub-on-commit pass: before a phase commits (all
    /// ranks saved), every one of its snapshots is re-verified against its
    /// checksum, and a corrupt snapshot blocks the commit — so a flipped
    /// image is caught at write time, not at the moment a recovery needs
    /// it. Callable on the shared store at any point (the supervised
    /// pipelines enable it when their validation policy is on).
    pub fn enable_scrub_on_commit(&self) {
        self.lock().scrub_on_commit = true;
    }

    /// Commits blocked (and snapshots flagged) by the scrub-on-commit pass.
    pub fn scrub_failures(&self) -> u64 {
        self.lock().scrub_failures
    }

    /// The FNV-1a checksum recorded when `rank`'s snapshot of `phase` was
    /// saved, if present. Lets a writer verify its save landed intact
    /// (write-time read-back) without cloning the payload out.
    pub fn stored_checksum(&self, rank: usize, phase: &'static str) -> Option<u64> {
        if let Some(dir) = &self.disk {
            return read_image(&self.image_path(dir, rank, phase)).map(|img| img.stored_checksum);
        }
        self.lock().snaps.get(&(rank, phase)).map(|s| s.checksum)
    }

    /// True once every rank has saved `phase`.
    pub fn is_committed(&self, phase: &'static str) -> bool {
        if let Some(dir) = &self.disk {
            return disk_committed(dir).iter().any(|&(_, ph)| ph == phase);
        }
        self.lock().committed.contains(&phase)
    }

    /// The globally committed phases, in commit order (the last entry is
    /// the deepest resume point).
    pub fn committed_phases(&self) -> Vec<&'static str> {
        if let Some(dir) = &self.disk {
            return disk_committed(dir).into_iter().map(|(_, ph)| ph).collect();
        }
        self.lock().committed.clone()
    }

    /// True if `rank` has a snapshot of `phase` (committed or not).
    pub fn has(&self, rank: usize, phase: &'static str) -> bool {
        if let Some(dir) = &self.disk {
            return self.image_path(dir, rank, phase).exists();
        }
        self.lock().snaps.contains_key(&(rank, phase))
    }

    /// The epoch that produced `rank`'s snapshot of `phase`, if present.
    pub fn epoch_of(&self, rank: usize, phase: &'static str) -> Option<u64> {
        if let Some(dir) = &self.disk {
            return read_image(&self.image_path(dir, rank, phase)).map(|img| img.epoch);
        }
        self.lock().snaps.get(&(rank, phase)).map(|s| s.epoch)
    }

    /// Live (unpruned) snapshots currently held.
    pub fn live_snapshots(&self) -> usize {
        if let Some(dir) = &self.disk {
            return self.disk_images(dir).len();
        }
        self.lock().snaps.len()
    }

    /// Every `(rank, phase, path)` image currently on disk.
    fn disk_images(&self, dir: &Path) -> Vec<(usize, &'static str, PathBuf)> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix('r') else {
                continue;
            };
            let Some(rest) = rest.strip_suffix(".ckpt") else {
                continue;
            };
            let Some((rank, phase)) = rest.split_once('-') else {
                continue;
            };
            if let Ok(rank) = rank.parse::<usize>() {
                out.push((rank, intern(phase), entry.path()));
            }
        }
        out
    }

    /// Total snapshots ever saved.
    pub fn saves(&self) -> u64 {
        self.lock().saves
    }

    /// Snapshots discarded by commit-time pruning.
    pub fn pruned(&self) -> u64 {
        self.lock().pruned
    }

    /// Chaos hook: flips one bit of `rank`'s stored snapshot of `phase`
    /// *without* updating its checksum, so the next restore reports
    /// [`CheckpointError::Corrupt`]. Returns false when no such snapshot
    /// exists. Test-facing — the pipeline never corrupts its own store.
    pub fn corrupt(&self, rank: usize, phase: &'static str) -> bool {
        if let Some(dir) = &self.disk {
            let path = self.image_path(dir, rank, phase);
            let Ok(mut bytes) = fs::read(&path) else {
                return false;
            };
            if bytes.len() <= 32 {
                return false;
            }
            bytes[32] ^= 1; // flip a payload bit, leave the stored checksum
            return fs::write(&path, &bytes).is_ok();
        }
        let mut g = self.lock();
        match g.snaps.get_mut(&(rank, phase)) {
            Some(snap) if !snap.data.is_empty() => {
                let v = &mut snap.data[0];
                v.re = f64::from_bits(v.re.to_bits() ^ 1);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(seed: u64, len: usize) -> Vec<c64> {
        (0..len)
            .map(|i| c64::new((seed as f64) + i as f64, -(i as f64)))
            .collect()
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let store = CheckpointStore::new(2);
        let data = buf(7, 33);
        store.save(0, "ghost", 0, &data);
        let got = store.restore(0, "ghost").unwrap();
        let bits = |v: &[c64]| -> Vec<u64> {
            v.iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .collect()
        };
        assert_eq!(bits(&got), bits(&data));
    }

    #[test]
    fn missing_and_corrupt_are_distinguished() {
        let store = CheckpointStore::new(2);
        assert_eq!(
            store.restore(1, "ghost"),
            Err(CheckpointError::Missing {
                rank: 1,
                phase: "ghost"
            })
        );
        store.save(1, "ghost", 0, &buf(1, 8));
        assert!(store.corrupt(1, "ghost"));
        assert_eq!(
            store.restore(1, "ghost"),
            Err(CheckpointError::Corrupt {
                rank: 1,
                phase: "ghost"
            })
        );
        // A fresh save repairs the slot.
        store.save(1, "ghost", 1, &buf(2, 8));
        assert!(store.restore(1, "ghost").is_ok());
        assert_eq!(store.epoch_of(1, "ghost"), Some(1));
    }

    #[test]
    fn phase_commits_when_all_ranks_saved() {
        let store = CheckpointStore::new(3);
        store.save(0, "conv", 0, &buf(0, 4));
        store.save(1, "conv", 0, &buf(1, 4));
        assert!(!store.is_committed("conv"));
        store.save(2, "conv", 0, &buf(2, 4));
        assert!(store.is_committed("conv"));
        assert_eq!(store.committed_phases(), vec!["conv"]);
    }

    #[test]
    fn commit_prunes_earlier_phases() {
        let store = CheckpointStore::new(2);
        for r in 0..2 {
            store.save(r, "ghost", 0, &buf(r as u64, 4));
        }
        for r in 0..2 {
            store.save(r, "conv", 0, &buf(10 + r as u64, 4));
        }
        assert_eq!(store.committed_phases(), vec!["ghost", "conv"]);
        // The ghost snapshots are gone; conv survives.
        assert!(!store.has(0, "ghost"));
        assert!(!store.has(1, "ghost"));
        assert!(store.has(0, "conv"));
        assert_eq!(store.pruned(), 2);
        assert_eq!(store.live_snapshots(), 2);
    }

    #[test]
    fn scrub_verifies_all_live_snapshots() {
        let store = CheckpointStore::new(2);
        store.save(0, "ghost", 0, &buf(1, 8));
        store.save(1, "ghost", 0, &buf(2, 8));
        assert_eq!(store.scrub(), Ok(2));
        assert!(store.corrupt(1, "ghost"));
        assert_eq!(
            store.scrub(),
            Err(CheckpointError::Corrupt {
                rank: 1,
                phase: "ghost"
            })
        );
        assert_eq!(store.scrub_failures(), 0, "manual scrub does not count");
    }

    #[test]
    fn scrub_on_commit_blocks_commit_until_resave() {
        let store = CheckpointStore::new(2);
        store.enable_scrub_on_commit();
        store.save(0, "conv", 0, &buf(1, 8));
        store.save(1, "conv", 0, &buf(2, 8));
        assert!(store.is_committed("conv"), "clean saves commit normally");

        let store = CheckpointStore::new(2);
        store.enable_scrub_on_commit();
        store.save(0, "conv", 0, &buf(1, 8));
        assert!(store.corrupt(0, "conv"));
        store.save(1, "conv", 0, &buf(2, 8));
        assert!(
            !store.is_committed("conv"),
            "a flipped image must not become a resume point"
        );
        assert_eq!(store.scrub_failures(), 1);
        // The owning rank re-saves clean data: the phase commits.
        store.save(0, "conv", 1, &buf(3, 8));
        assert!(store.is_committed("conv"));
    }

    #[test]
    fn stored_checksum_supports_write_time_readback() {
        let store = CheckpointStore::new(1);
        assert_eq!(store.stored_checksum(0, "ghost"), None);
        let data = buf(9, 16);
        store.save(0, "ghost", 0, &data);
        assert_eq!(
            store.stored_checksum(0, "ghost"),
            Some(crate::resilience::checksum(&data))
        );
        let mut flipped = data.clone();
        flipped[3].im = f64::from_bits(flipped[3].im.to_bits() ^ (1 << 62));
        assert_ne!(
            store.stored_checksum(0, "ghost"),
            Some(crate::resilience::checksum(&flipped))
        );
    }

    #[test]
    fn uncommitted_saves_are_visible_but_not_resume_points() {
        let store = CheckpointStore::new(2);
        store.save(0, "segment-fft", 3, &buf(3, 4));
        assert!(store.has(0, "segment-fft"));
        assert!(!store.is_committed("segment-fft"));
        assert_eq!(store.epoch_of(0, "segment-fft"), Some(3));
        assert_eq!(store.saves(), 1);
    }

    /// Fresh scratch dir, removed on drop.
    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("soifft-ckpt-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn bits(v: &[c64]) -> Vec<u64> {
        v.iter()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect()
    }

    #[test]
    fn disk_round_trip_survives_reopen() {
        let tmp = TempDir::new("roundtrip");
        let data = buf(11, 57);
        {
            let store = CheckpointStore::persistent(2, &tmp.0).unwrap();
            store.save(0, "ghost", 4, &data);
            assert_eq!(store.epoch_of(0, "ghost"), Some(4));
        }
        // A brand-new store on the same dir (≈ respawned process) sees
        // the snapshot bit-for-bit.
        let store = CheckpointStore::persistent(2, &tmp.0).unwrap();
        assert!(store.has(0, "ghost"));
        assert_eq!(store.epoch_of(0, "ghost"), Some(4));
        assert_eq!(
            store.stored_checksum(0, "ghost"),
            Some(crate::resilience::checksum(&data))
        );
        assert_eq!(bits(&store.restore(0, "ghost").unwrap()), bits(&data));
        assert_eq!(
            store.restore(1, "ghost"),
            Err(CheckpointError::Missing {
                rank: 1,
                phase: "ghost"
            })
        );
    }

    #[test]
    fn disk_commit_markers_order_and_prune_across_stores() {
        let tmp = TempDir::new("commit");
        // Two stores on the same dir stand in for two OS processes.
        let a = CheckpointStore::persistent(2, &tmp.0).unwrap();
        let b = CheckpointStore::persistent(2, &tmp.0).unwrap();
        a.save(0, "ghost", 0, &buf(1, 8));
        assert!(!a.is_committed("ghost"));
        b.save(1, "ghost", 0, &buf(2, 8));
        assert!(a.is_committed("ghost"), "commit state is shared via disk");
        a.save(0, "conv", 0, &buf(3, 8));
        b.save(1, "conv", 0, &buf(4, 8));
        assert_eq!(a.committed_phases(), vec!["ghost", "conv"]);
        assert_eq!(b.committed_phases(), vec!["ghost", "conv"]);
        // The conv commit pruned the ghost images.
        assert!(!a.has(0, "ghost"));
        assert!(!b.has(1, "ghost"));
        assert_eq!(a.live_snapshots(), 2);
        assert_eq!(a.scrub(), Ok(2));
    }

    #[test]
    fn disk_corrupt_image_detected_and_quarantined_on_reopen() {
        let tmp = TempDir::new("scrubload");
        let store = CheckpointStore::persistent(1, &tmp.0).unwrap();
        store.save(0, "segment-fft", 2, &buf(5, 16));
        assert!(store.corrupt(0, "segment-fft"));
        assert_eq!(
            store.restore(0, "segment-fft"),
            Err(CheckpointError::Corrupt {
                rank: 0,
                phase: "segment-fft"
            })
        );
        assert!(store.scrub().is_err());
        // Reopen scrubs on load: the bad image is quarantined (removed)
        // and reads back as missing, never as valid state.
        let store = CheckpointStore::persistent(1, &tmp.0).unwrap();
        assert_eq!(store.scrub_failures(), 1);
        assert_eq!(
            store.restore(0, "segment-fft"),
            Err(CheckpointError::Missing {
                rank: 0,
                phase: "segment-fft"
            })
        );
    }
}
