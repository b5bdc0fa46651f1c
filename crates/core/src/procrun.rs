//! Child-process body for multi-process SOI runs.
//!
//! The [`ProcSupervisor`](soifft_cluster::transport::proc::ProcSupervisor)
//! spawns each rank as a child OS process and describes the rank's place
//! in the cluster through the `SOIFFT_PROC_*` environment. This module is
//! the matching child side: [`child_main`] probes that environment, and
//! when present joins the epoch's TCP mesh, opens the shared
//! **disk-mode** checkpoint store, rebuilds the recovery context for its
//! generation, runs [`SoiFft::try_forward_recoverable`], and writes its
//! local spectrum — atomically — to a per-rank output file the parent can
//! compare bit-for-bit across fault-free and chaos runs.
//!
//! The same body serves the `proc_chaos` test harness, the
//! `examples/proc_run.rs` demo, and the chaos example's process-kill
//! scenario, so every caller exercises the exact production wiring.

use std::io;
use std::path::Path;
use std::sync::Arc;

use soifft_cluster::transport::proc::{ProcEndpoint, CHILD_COMM_ABORT};
use soifft_cluster::{CheckpointStore, ClusterConfig, Comm, ExchangePolicy, RecoveryCtx};
use soifft_num::c64;

use crate::params::SoiParams;
use crate::pipeline::{scatter_input, SoiFft};

/// Deterministic pseudo-random input shared by parent and children (the
/// parent never ships the vector — both sides regenerate it from the
/// seed, so a respawned generation computes on identical bits).
pub fn seeded_input(n: usize, seed: u64) -> Vec<c64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    (0..n).map(|_| c64::new(next(), next())).collect()
}

/// Atomically (temp-write + rename) persists `rank`'s local spectrum so
/// a kill can never leave a half-written result under the live name.
///
/// # Errors
/// Filesystem errors from the write or rename.
pub fn write_rank_output(dir: &Path, rank: usize, data: &[c64]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut bytes = Vec::with_capacity(data.len() * 16);
    for z in data {
        bytes.extend_from_slice(&z.re.to_le_bytes());
        bytes.extend_from_slice(&z.im.to_le_bytes());
    }
    let tmp = dir.join(format!(".rank{rank}.tmp"));
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, dir.join(format!("rank{rank}.out")))
}

/// Reads back what [`write_rank_output`] persisted.
///
/// # Errors
/// Filesystem errors, or `InvalidData` when the file length is not a
/// whole number of complex values.
pub fn read_rank_output(dir: &Path, rank: usize) -> io::Result<Vec<c64>> {
    let bytes = std::fs::read(dir.join(format!("rank{rank}.out")))?;
    if bytes.len() % 16 != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "output file is not a whole number of complex values",
        ));
    }
    Ok(bytes
        .chunks_exact(16)
        .map(|pair| {
            c64::new(
                f64::from_le_bytes(pair[..8].try_into().expect("slice is 8 bytes")),
                f64::from_le_bytes(pair[8..].try_into().expect("slice is 8 bytes")),
            )
        })
        .collect())
}

/// The supervised-child body: `None` when the `SOIFFT_PROC_*` environment
/// is absent (we are not a spawned rank), otherwise the exit code the
/// process should terminate with — `0` on success, [`CHILD_COMM_ABORT`]
/// when the run died with a typed comm error (a casualty of a peer
/// failure, for the supervisor to distinguish from a root-cause death).
#[must_use = "exit with the returned code so the supervisor can classify this rank"]
pub fn child_main(params: &SoiParams, seed: u64, out_dir: &Path) -> Option<i32> {
    let ep = ProcEndpoint::from_env()?;
    Some(run_child(&ep, params, seed, out_dir))
}

/// [`child_main`] after the environment probe, for callers that already
/// hold the [`ProcEndpoint`].
pub fn run_child(ep: &ProcEndpoint, params: &SoiParams, seed: u64, out_dir: &Path) -> i32 {
    let transport = match ep.connect() {
        Ok(t) => t,
        // The supervisor closes the link unwelcomed when a peer died
        // before every rank joined: a casualty, not a death.
        Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => return CHILD_COMM_ABORT,
        Err(e) => {
            eprintln!("rank {}: joining the mesh failed: {e}", ep.rank);
            return 3;
        }
    };
    let mut comm = Comm::from_transport(Box::new(transport), &ClusterConfig::default());
    let store = match &ep.checkpoint_dir {
        Some(dir) => match CheckpointStore::persistent(ep.size, dir) {
            Ok(s) => Arc::new(s),
            Err(e) => {
                eprintln!("rank {}: checkpoint dir unusable: {e}", ep.rank);
                return 3;
            }
        },
        None => Arc::new(CheckpointStore::new(ep.size)),
    };
    let ctx = RecoveryCtx::resume(store, ep.generation, ep.restarts);
    let plan = match SoiFft::new(*params) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rank {}: bad SOI parameters: {e}", ep.rank);
            return 4;
        }
    };
    let input = seeded_input(params.n, seed);
    let local = scatter_input(&input, params.procs).swap_remove(ep.rank);
    match plan.try_forward_recoverable(&mut comm, &local, &ExchangePolicy::default(), &ctx) {
        Ok(y) => {
            if let Err(e) = write_rank_output(out_dir, ep.rank, &y) {
                eprintln!("rank {}: output write failed: {e}", ep.rank);
                return 3;
            }
            0
        }
        Err(err) => {
            eprintln!(
                "rank {}: aborting at phase {:?}: {}",
                ep.rank, err.phase, err.error
            );
            CHILD_COMM_ABORT
        }
    }
}
