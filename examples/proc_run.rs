//! Multi-process mode: the distributed SOI FFT with ranks as real OS
//! processes.
//!
//! ```sh
//! cargo run --release --example proc_run
//! ```
//!
//! The in-process `Cluster` runs ranks as threads over channels; this
//! demo swaps that transport for the multi-process backend: a
//! `ProcSupervisor` spawns each rank as a child process (re-executing
//! this very binary — the probe at the top of `main` turns the child
//! into a rank), has them join one loopback TCP mesh through a
//! Unix-domain control link each, points them at a shared **disk**
//! checkpoint directory, and watches their health (exit status +
//! control-link heartbeats).
//!
//! Run 1 is fault-free. Run 2 delivers a real `kill -9` to rank 2 just
//! as its `segment-fft` checkpoint lands (i.e. entering the all-to-all);
//! the supervisor detects the death, respawns the rank set into a new
//! generation, the children resume from the on-disk checkpoints, and the
//! recovered spectrum is bit-identical to run 1.

use std::path::PathBuf;
use std::time::Duration;

use soifft::cluster::transport::proc::{KillPlan, KillWhen, ProcConfig, ProcSupervisor};
use soifft::cluster::FailureDetection;
use soifft::fft::Plan;
use soifft::num::c64;
use soifft::num::error::rel_l2;
use soifft::soi::pipeline::gather_output;
use soifft::soi::procrun::{self, read_rank_output, seeded_input};
use soifft::soi::{Rational, SoiParams};

const PROCS: usize = 4;
const SEED: u64 = 0xD15C_0FF7;

fn params() -> SoiParams {
    SoiParams {
        n: 1 << 18,
        procs: PROCS,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 40,
    }
}

fn bits(v: &[c64]) -> Vec<u64> {
    v.iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

fn main() {
    // Child probe: when the supervisor re-executes this binary with the
    // SOIFFT_PROC_* environment, become the rank process.
    if let Ok(out) = std::env::var("SOIFFT_DEMO_OUT") {
        if let Some(code) = procrun::child_main(&params(), SEED, &PathBuf::from(out)) {
            std::process::exit(code);
        }
    }

    let p = params();
    println!(
        "multi-process SOI: N = {}, P = {PROCS} rank processes (loopback TCP mesh, disk checkpoints)",
        p.n
    );
    let exe = std::env::current_exe().expect("own path");
    let work = std::env::temp_dir().join(format!("soifft-proc-run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);

    let mut want = seeded_input(p.n, SEED);
    Plan::new(p.n).forward(&mut want);

    let run_once = |tag: &str, kill: Option<KillPlan>| {
        let dir = work.join(tag);
        let out = dir.join("out");
        let config = ProcConfig {
            detection: FailureDetection {
                heartbeat_interval: Duration::from_millis(25),
                staleness_timeout: Duration::from_secs(3),
                ..FailureDetection::default()
            },
            kill,
            ..ProcConfig::default()
        };
        let sup = ProcSupervisor::with_config(&dir, config);
        let run = sup
            .run(PROCS, |_, _| {
                let mut cmd = std::process::Command::new(&exe);
                cmd.env("SOIFFT_DEMO_OUT", &out);
                cmd
            })
            .expect("supervised run launches");
        println!(
            "  {tag}: epochs {} | restarts {} | deaths {} (heartbeat {}) | kills injected {} | outcomes {:?}",
            run.epochs, run.restarts, run.deaths, run.heartbeat_deaths, run.injected_kills, run.outcomes
        );
        assert!(run.all_ok(), "{tag}: all ranks must complete");
        let parts: Vec<Vec<c64>> = (0..PROCS)
            .map(|r| read_rank_output(&out, r).expect("rank output present"))
            .collect();
        (run, parts)
    };

    println!("\nrun 1: fault-free");
    let (clean_run, clean_parts) = run_once("clean", None);
    assert_eq!(clean_run.epochs, 1);
    let err = rel_l2(&gather_output(clean_parts.clone()), &want);
    println!("  spectrum verified: rel_l2 = {err:.3e}");
    assert!(err < 1e-9);

    println!("\nrun 2: kill -9 rank 2 as it enters the all-to-all");
    let kill = KillPlan {
        rank: 2,
        generation: 0,
        when: KillWhen::FileExists(work.join("chaos").join("ckpt").join("r2-segment-fft.ckpt")),
    };
    let (chaos_run, chaos_parts) = run_once("chaos", Some(kill));
    assert_eq!(chaos_run.injected_kills, 1, "the kill must fire");
    assert!(
        chaos_run.epochs >= 2,
        "recovery takes a respawned generation"
    );
    for r in 0..PROCS {
        assert_eq!(
            bits(&chaos_parts[r]),
            bits(&clean_parts[r]),
            "rank {r} must recover bit-identically"
        );
    }
    println!("  recovered spectrum: bit-identical to run 1 on every rank");

    let _ = std::fs::remove_dir_all(&work);
    println!("\nok: rank processes die for real, the supervisor respawns them, disk checkpoints make recovery exact.");
}
