//! Multi-process chaos: the SOI pipeline across real OS processes with
//! `kill -9` injected mid-run.
//!
//! The harness re-executes this very test binary as the rank processes
//! (the `proc_child` hook below no-ops unless the `SOIFFT_PROC_*`
//! environment marks it as a spawned rank). The invariant under test is
//! the PR 7 contract: a SIGKILLed rank is detected (exit status or
//! heartbeat staleness), the supervisor respawns the rank set into a new
//! generation, the children resume from the shared **disk** checkpoint
//! store, and the recovered spectrum is **bit-identical** to a
//! fault-free multi-process run — and numerically correct against the
//! single-process reference FFT.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use soifft::cluster::transport::proc::{
    KillPlan, KillWhen, ProcConfig, ProcEndpoint, ProcOutcome, ProcSupervisor,
};
use soifft::cluster::{Cluster, FailureDetection, RestartPolicy};
use soifft::fft::Plan;
use soifft::num::c64;
use soifft::num::error::rel_l2;
use soifft::soi::pipeline::{gather_output, scatter_input};
use soifft::soi::procrun::{child_main, read_rank_output, seeded_input};
use soifft::soi::{Rational, SoiFft, SoiParams};

const PROCS: usize = 4;
const SEED: u64 = 0x050C_1FF7;

fn params() -> SoiParams {
    SoiParams {
        // Large enough that the post-checkpoint tail (all-to-all +
        // back-end FFTs) comfortably outlasts the supervisor's 5 ms kill
        // poll, so the scripted SIGKILL reliably lands mid-phase.
        n: 1 << 18,
        procs: PROCS,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 40,
    }
}

/// The child body: a no-op under the normal test run, the rank process
/// when spawned by the supervisor with the proc environment set.
#[test]
fn proc_child() {
    let Some(ep) = ProcEndpoint::from_env() else {
        return;
    };
    // Wedge chaos ("rank:generation"): connect, go silent, and hang —
    // the failure detector, not an exit status, must notice us.
    if let Ok(spec) = std::env::var("SOIFFT_TEST_WEDGE") {
        if let Some((r, g)) = spec.split_once(':') {
            if r.parse() == Ok(ep.rank) && g.parse() == Ok(ep.generation) {
                let transport = ep.connect().expect("wedge child connects");
                transport.wedge_heartbeats();
                std::thread::sleep(Duration::from_secs(30));
                std::process::exit(7); // never reached: the supervisor reaps us
            }
        }
    }
    let out_dir = PathBuf::from(std::env::var("SOIFFT_TEST_OUT").expect("parent sets out dir"));
    let code = child_main(&params(), SEED, &out_dir).expect("proc env present");
    std::process::exit(code);
}

/// Command that re-executes this test binary as a rank process.
fn child_cmd(out_dir: &Path, wedge: Option<&str>) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args([
        "proc_child",
        "--exact",
        "--test-threads",
        "1",
        "--nocapture",
    ])
    .env("SOIFFT_TEST_OUT", out_dir)
    .stdout(Stdio::null());
    if let Some(spec) = wedge {
        cmd.env("SOIFFT_TEST_WEDGE", spec);
    }
    cmd
}

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("soifft-proc-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create workdir");
        TempDir(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn quick_config() -> ProcConfig {
    ProcConfig {
        detection: FailureDetection {
            heartbeat_interval: Duration::from_millis(25),
            // Exit-status polling is the primary detector for kills; keep
            // staleness generous so a busy CI box never false-positives.
            staleness_timeout: Duration::from_secs(3),
            ..FailureDetection::default()
        },
        epoch_deadline: Duration::from_secs(120),
        restart: RestartPolicy::default(),
        ..ProcConfig::default()
    }
}

fn bits(v: &[c64]) -> Vec<u64> {
    v.iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

fn collect_outputs(out_dir: &Path) -> Vec<Vec<c64>> {
    (0..PROCS)
        .map(|r| read_rank_output(out_dir, r).expect("rank output present"))
        .collect()
}

#[test]
fn kill9_mid_run_recovers_bit_identical() {
    // Fault-free multi-process run: the baseline bits.
    let clean = TempDir::new("clean");
    let clean_out = clean.0.join("out");
    let sup = ProcSupervisor::with_config(&clean.0, quick_config());
    let run = sup
        .run(PROCS, |_, _| child_cmd(&clean_out, None))
        .expect("fault-free run launches");
    println!("proc-chaos fault-free: {run:?}");
    assert!(run.all_ok(), "fault-free outcomes: {:?}", run.outcomes);
    assert_eq!(run.epochs, 1);
    assert_eq!(run.deaths, 0);
    let clean_parts = collect_outputs(&clean_out);

    // The process backend computes the in-process backend's bits.
    let inputs = scatter_input(&seeded_input(params().n, SEED), PROCS);
    let fft = SoiFft::new(params()).expect("valid SOI parameters");
    let in_process = Cluster::run(PROCS, |comm| fft.forward(comm, &inputs[comm.rank()]));
    for r in 0..PROCS {
        assert_eq!(
            bits(&clean_parts[r]),
            bits(&in_process[r]),
            "rank {r}: the process run must equal Cluster::run bit for bit"
        );
    }

    // Chaos run: SIGKILL rank 2 the moment its segment-fft snapshot
    // lands on disk — i.e. as it enters the all-to-all.
    let chaos = TempDir::new("kill9");
    let chaos_out = chaos.0.join("out");
    let mut config = quick_config();
    let sup = ProcSupervisor::with_config(&chaos.0, {
        config.kill = Some(KillPlan {
            rank: 2,
            generation: 0,
            when: KillWhen::FileExists(chaos.0.join("ckpt").join("r2-segment-fft.ckpt")),
        });
        config
    });
    let run = sup
        .run(PROCS, |_, _| child_cmd(&chaos_out, None))
        .expect("chaos run launches");
    println!("proc-chaos kill -9: {run:?}");
    assert_eq!(run.injected_kills, 1, "the scripted kill must fire");
    assert!(run.deaths >= 1, "the kill must register as a rank death");
    assert!(run.epochs >= 2, "recovery must take a respawned generation");
    assert!(
        run.all_ok(),
        "respawned generation must complete: {:?}",
        run.outcomes
    );

    // Recovery contract: bit-identical to the fault-free run, and a
    // numerically correct spectrum.
    let chaos_parts = collect_outputs(&chaos_out);
    for r in 0..PROCS {
        assert_eq!(
            bits(&chaos_parts[r]),
            bits(&clean_parts[r]),
            "rank {r}: recovered spectrum must be bit-identical"
        );
    }
    let p = params();
    let mut want = seeded_input(p.n, SEED);
    Plan::new(p.n).forward(&mut want);
    let got = gather_output(chaos_parts);
    let err = rel_l2(&got, &want);
    assert!(
        err < 1e-9,
        "recovered spectrum must verify: rel err {err:.3e}"
    );
}

#[test]
fn wedged_rank_is_detected_by_heartbeat_staleness() {
    let work = TempDir::new("wedge");
    let out = work.0.join("out");
    let config = ProcConfig {
        detection: FailureDetection {
            heartbeat_interval: Duration::from_millis(25),
            // Tight staleness so the wedged (silent but alive) rank is
            // declared down quickly; live ranks beat every 25 ms.
            staleness_timeout: Duration::from_millis(600),
            ..FailureDetection::default()
        },
        epoch_deadline: Duration::from_secs(120),
        restart: RestartPolicy::default(),
        ..ProcConfig::default()
    };
    let sup = ProcSupervisor::with_config(&work.0, config);
    // Rank 1 wedges in generation 0 only: it connects, stops
    // heartbeating, and hangs — no exit status to observe.
    let run = sup
        .run(PROCS, |_, _| child_cmd(&out, Some("1:0")))
        .expect("wedge run launches");
    println!("proc-chaos wedge: {run:?}");
    assert!(
        run.heartbeat_deaths >= 1,
        "the wedged rank must be detected by staleness, not exit"
    );
    assert!(run.epochs >= 2, "detection must drive a respawn");
    assert!(
        run.all_ok(),
        "respawned generation must complete: {:?}",
        run.outcomes
    );
    assert!(
        run.outcomes.iter().all(|o| *o == ProcOutcome::Ok),
        "final epoch outcomes: {:?}",
        run.outcomes
    );

    let parts = collect_outputs(&out);
    let p = params();
    let mut want = seeded_input(p.n, SEED);
    Plan::new(p.n).forward(&mut want);
    let err = rel_l2(&gather_output(parts), &want);
    assert!(
        err < 1e-9,
        "post-recovery spectrum must verify: rel err {err:.3e}"
    );
}
