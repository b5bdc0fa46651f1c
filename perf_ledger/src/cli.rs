//! Command line and orchestration. The process the user (or the driver)
//! starts only orchestrates: every measuring run and every ledger section
//! executes in its own fresh child process of this same executable, because
//! the program's plan cache and wisdom registry are process singletons and
//! `setup_s` / `peak_rss_mb` only mean something per process.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host::{refusal, Provenance};
use crate::ledger::{child_e2e, child_section, out_dir, ChildReport};
use crate::metrics::{benchmark_json, Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{iqr_share, median};

const USAGE: &str = "\
perf_ledger — the repository's benchmark

  perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run of one workload; the last line of standard output is the
      result as one JSON object (end-to-end metrics with --trace 0, the
      per-layer ledger with --trace 1)
  perf_ledger [--seed <n>] [--seconds <s>] [--smoke]
      one full set: every workload untraced, then traced
  perf_ledger --aa [--runs <k>] [--seconds <s>] [--write-baseline]
      two sets of k seeds per workload, the second in reverse workload
      order; table of spread and drift against each bound; exit 1 on breach
  perf_ledger --print-benchmark-json
      the contents of BENCHMARK.json

workloads: soi_large soi_small_tcp ct_large serve_closed
--smoke runs every code path at 1/64 size in a few seconds.
";

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: bool,
    runs: usize,
    write_baseline: bool,
    print_benchmark_json: bool,
    child: Option<String>,
    scale: f64,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: RUN_SECONDS as f64,
        runs: 10,
        scale: 1.0,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--scale" => args.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--child" => args.child = Some(value()?.clone()),
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            "--write-baseline" => args.write_baseline = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if args.runs < 2 && args.aa {
        return Err("--runs must be at least 2".into());
    }
    Ok(args)
}

/// Runs this executable again with `args`, waits for it, and parses its
/// report. The child's standard error passes through.
fn spawn_child(args: &[String]) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child {args:?} ended with {}", output.status));
    }
    ChildReport::parse(&String::from_utf8_lossy(&output.stdout))
}

/// The result of one run of one workload.
#[derive(Debug, Default, Clone)]
pub struct RunResult {
    /// Metric name → value: end-to-end metrics (untraced) or the ledger (traced).
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: usize,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Facts about the run that are not metrics: sample counts, array sizes.
    pub notes: BTreeMap<String, f64>,
    /// Wall time of the whole run, seconds.
    pub wall_s: f64,
}

fn common_args(kind: &str, workload: Workload, seed: u64, smoke: bool) -> Vec<String> {
    let mut v = vec![
        "--child".to_string(),
        kind.to_string(),
        "--workload".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        seed.to_string(),
    ];
    if smoke {
        v.push("--smoke".into());
    }
    v
}

/// One untraced run: the measuring child plus set-up-only children, whose
/// `setup_s` samples (one fresh process each) are reduced to their median.
fn run_end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<RunResult, String> {
    let t = Instant::now();
    let mut args = common_args("e2e", workload, seed, smoke);
    args.extend(["--seconds".to_string(), seconds.to_string()]);
    let main = spawn_child(&args)?;
    let mut setups = vec![*main
        .metrics
        .get("setup_s")
        .ok_or("measuring child reported no setup_s")?];
    // At least two more fresh processes; more while they are cheap, so
    // that millisecond-scale set-ups are not a three-sample median.
    let t_setups = Instant::now();
    while setups.len() < 3 || (setups.len() < 15 && t_setups.elapsed().as_secs_f64() < 1.5) {
        let child = spawn_child(&common_args("setup", workload, seed, smoke))?;
        setups.push(
            *child
                .metrics
                .get("setup_s")
                .ok_or("set-up child reported no setup_s")?,
        );
    }
    let mut metrics = main.metrics;
    metrics.insert("setup_s".into(), median(&setups));
    let mut notes = main.aux;
    notes.insert("setup_fresh_processes".into(), setups.len() as f64);
    Ok(RunResult {
        metrics,
        attempted: main.attempted,
        failures: main.failures,
        notes,
        wall_s: t.elapsed().as_secs_f64(),
    })
}

/// One traced run: every section of the ledger, each in a fresh process;
/// the section named after `workload` runs at full length, the others at
/// half.
fn run_ledger(
    workload: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<RunResult, String> {
    let t = Instant::now();
    let mut result = RunResult::default();
    let base = if smoke {
        0.02
    } else {
        seconds / RUN_SECONDS as f64
    };
    for section in Workload::ALL {
        let scale = if section == workload {
            base
        } else {
            0.5 * base
        };
        let mut args = common_args("section", section, seed, smoke);
        args.extend(["--scale".to_string(), scale.to_string()]);
        let child = spawn_child(&args)?;
        result.metrics.extend(child.metrics);
        result.notes.extend(child.aux);
        result.attempted += child.attempted;
        result.failures.extend(child.failures);
    }
    let p50 = |key: &str| result.notes.get(key).copied().ok_or(format!("no {key}"));
    let ratio = p50("soi_large_p50_s")? / p50("ct_large_p50_s")?;
    result.metrics.insert("ct.soi_over_ct_ratio".into(), ratio);
    result.wall_s = t.elapsed().as_secs_f64();
    Ok(result)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        // JSON has no infinities; the ledger's ratios can divide by zero
        // only on a degenerate smoke run.
        format!("{:e}", if v > 0.0 { f64::MAX } else { f64::MIN })
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(result: &RunResult, units: &BTreeMap<&str, &str>) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*v),
                units[name.as_str()]
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failures.is_empty(),
        result.attempted,
        result.failures.len(),
        metrics.join(", ")
    )
}

fn units() -> BTreeMap<&'static str, &'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .collect()
}

/// Checks that `result` carries exactly the declared metric names.
fn check_names(result: &RunResult, traced: bool) -> Result<(), String> {
    let declared: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let missing: Vec<&&str> = declared
        .iter()
        .filter(|n| !result.metrics.contains_key(**n))
        .collect();
    let extra: Vec<&String> = result
        .metrics
        .keys()
        .filter(|k| !declared.contains(&k.as_str()))
        .collect();
    if missing.is_empty() && extra.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "emitted names differ from declared: missing {missing:?}, undeclared {extra:?}"
        ))
    }
}

fn print_result(
    workload: Workload,
    traced: bool,
    result: &RunResult,
    units: &BTreeMap<&str, &str>,
) {
    println!(
        "## {} ({}), {:.1} s wall",
        workload.name(),
        if traced {
            "traced: per-layer ledger"
        } else {
            "untraced: end to end"
        },
        result.wall_s
    );
    for (name, v) in &result.metrics {
        println!("{name:<40} {v:>16.6e} {}", units[name.as_str()]);
    }
    for (name, v) in &result.notes {
        println!("note {name:<35} {v}");
    }
    println!(
        "attempted {} failed {}",
        result.attempted,
        result.failures.len()
    );
    for f in &result.failures {
        println!("FAILED {f}");
    }
}

fn run_one(
    workload: Workload,
    traced: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<RunResult, String> {
    let result = if traced {
        run_ledger(workload, seed, seconds, smoke)?
    } else {
        run_end_to_end(workload, seed, seconds, smoke)?
    };
    check_names(&result, traced)?;
    Ok(result)
}

/// Relative amount by which `new` is worse than `old` (negative = better).
fn worse_by(old: f64, new: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (old - new) / old.abs()
    } else {
        (new - old) / old.abs()
    }
}

/// The A/A procedure: two sets of `runs` seeds per workload on the same
/// code, the second set in reverse workload order. Every end-to-end
/// metric's quartile spread (except `setup_s`) and its median drift from
/// set 1 to set 2 must stay within the metric's bound.
fn aa(args: &Args, seconds: f64, prov: &Provenance) -> Result<bool, String> {
    let t_all = Instant::now();
    let mut sets: Vec<BTreeMap<Workload, Vec<RunResult>>> = Vec::new();
    let mut traced: BTreeMap<Workload, RunResult> = BTreeMap::new();
    let mut set_walls = Vec::new();
    for set in 0..2 {
        let t_set = Instant::now();
        let mut order = Workload::ALL.to_vec();
        if set == 1 {
            order.reverse();
        }
        let mut results = BTreeMap::new();
        for &w in &order {
            let mut runs = Vec::new();
            for k in 0..args.runs {
                let seed = args.seed + (set * args.runs + k) as u64;
                let r = run_one(w, false, seed, seconds, args.smoke)?;
                eprintln!(
                    "# set {} {} seed {seed}: {:.1} s",
                    set + 1,
                    w.name(),
                    r.wall_s
                );
                runs.push(r);
            }
            results.insert(w, runs);
            let r = run_one(w, true, args.seed + set as u64, seconds, args.smoke)?;
            eprintln!("# set {} {} traced: {:.1} s", set + 1, w.name(), r.wall_s);
            traced.insert(w, r);
        }
        sets.push(results);
        set_walls.push(t_set.elapsed().as_secs_f64());
    }

    let mut ok = true;
    let mut md = String::from("# perf_ledger baseline (A/A on one commit)\n\n```\n");
    md.push_str(&prov.text());
    md.push_str(&format!(
        "runs per workload per set: {}\nrun_seconds: {}\nfirst seed: {}\nset walls: {:.0} s, {:.0} s (untraced + traced, every workload)\n```\n\n",
        args.runs, seconds, args.seed, set_walls[0], set_walls[1]
    ));
    md.push_str("## End to end: set 1 median (base), quartile spread, set 2 drift, bound\n\n");
    md.push_str("`spread` is (Q3 − Q1) ÷ median of one set's runs, quartiles as Python's `statistics.quantiles(values, n=4)`; `drift` is how much worse set 2's median is than set 1's as a share of set 1's (negative = better). A metric breaches when either spread (`setup_s` excepted) or the drift exceeds its bound.\n\n");
    md.push_str("| workload | metric | unit | set 1 median | set 2 median | spread 1 | spread 2 | drift | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n");
    let mut json = String::from("{\n  \"provenance\": {");
    for (key, value) in prov.fields() {
        json.push_str(&format!("\"{key}\": \"{value}\", "));
    }
    json.push_str(&format!(
        "\"runs\": {}, \"run_seconds\": {seconds}, \"first_seed\": {}",
        args.runs, args.seed
    ));
    json.push_str("},\n  \"end_to_end\": {\n");
    let mut any_failed = 0usize;
    for (wi, w) in Workload::ALL.iter().enumerate() {
        json.push_str(&format!("    \"{}\": {{\n", w.name()));
        for (mi, m) in END_TO_END.iter().enumerate() {
            let values = |set: usize| -> Vec<f64> {
                sets[set][w].iter().map(|r| r.metrics[m.name]).collect()
            };
            let (v1, v2) = (values(0), values(1));
            let (m1, m2) = (median(&v1), median(&v2));
            let (s1, s2) = (iqr_share(&v1), iqr_share(&v2));
            let drift = worse_by(m1, m2, m.higher_is_better);
            let spread_ok = m.name == "setup_s" || (s1 <= m.bound && s2 <= m.bound);
            let verdict = if spread_ok && drift <= m.bound {
                "ok"
            } else {
                "BREACH"
            };
            ok &= verdict == "ok";
            md.push_str(&format!(
                "| {} | {} | {} | {:.6e} | {:.6e} | {:.4} | {:.4} | {:+.4} | {} | {} |\n",
                w.name(),
                m.name,
                m.unit,
                m1,
                m2,
                s1,
                s2,
                drift,
                m.bound,
                verdict
            ));
            let list = |v: &[f64]| {
                v.iter()
                    .map(|x| json_number(*x))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            json.push_str(&format!(
                "      \"{}\": {{\"unit\": \"{}\", \"bound\": {}, \"set1\": [{}], \"set2\": [{}]}}{}\n",
                m.name, m.unit, m.bound, list(&v1), list(&v2), if mi + 1 < END_TO_END.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "    }}{}\n",
            if wi + 1 < Workload::ALL.len() {
                ","
            } else {
                ""
            }
        ));
        any_failed += sets
            .iter()
            .flat_map(|s| s[w].iter())
            .map(|r| r.failures.len())
            .sum::<usize>();
    }
    json.push_str("  },\n  \"per_layer\": {\n");
    md.push_str("\n## Operations\n\n| workload | attempted per run (set 1) | failed (all runs) | run wall, s (set 1 median) |\n|---|---|---|---|\n");
    for w in Workload::ALL {
        let attempted: Vec<String> = sets[0][&w]
            .iter()
            .map(|r| r.attempted.to_string())
            .collect();
        let failed: usize = sets
            .iter()
            .flat_map(|s| s[&w].iter())
            .map(|r| r.failures.len())
            .sum();
        let walls: Vec<f64> = sets[0][&w].iter().map(|r| r.wall_s).collect();
        md.push_str(&format!(
            "| {} | {} | {} | {:.1} |\n",
            w.name(),
            attempted.join(" "),
            failed,
            median(&walls)
        ));
    }
    md.push_str("\n## Per-layer ledger (second set's traced run of the workload that owns each metric; reported, not gated)\n\n| metric | unit | better | measured by section | value |\n|---|---|---|---|---|\n");
    let unit_of = units();
    for (i, m) in PER_LAYER.iter().enumerate() {
        let v = traced[&m.section].metrics[m.name];
        md.push_str(&format!(
            "| {} | {} | {} | {} | {:.6e} |\n",
            m.name,
            m.unit,
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            m.section.name(),
            v
        ));
        json.push_str(&format!(
            "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}{}\n",
            m.name,
            json_number(v),
            unit_of[m.name],
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    md.push_str(&format!(
        "\nTraced run walls (set 2): {}\n",
        Workload::ALL
            .iter()
            .map(|w| format!("{} {:.1} s", w.name(), traced[w].wall_s))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if any_failed > 0 {
        ok = false;
        md.push_str(&format!("\n**{any_failed} operations failed.**\n"));
    }
    md.push_str(&format!(
        "\nVerdict: {}. Total wall {:.0} s.\n",
        if ok {
            "every metric within its bound"
        } else {
            "BREACH"
        },
        t_all.elapsed().as_secs_f64()
    ));
    print!("{md}");
    if args.write_baseline {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        std::fs::write(dir.join("BASELINE.md"), &md)
            .map_err(|e| format!("write BASELINE.md: {e}"))?;
        std::fs::write(dir.join("baseline.json"), &json)
            .map_err(|e| format!("write baseline.json: {e}"))?;
    }
    Ok(ok)
}

/// Entry point; returns the process exit code.
pub fn main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprint!("{USAGE}");
            if msg.is_empty() {
                return 0;
            }
            eprintln!("\nerror: {msg}");
            return 2;
        }
    };
    if args.print_benchmark_json {
        print!("{}", benchmark_json());
        return 0;
    }
    if let Some(why) = refusal() {
        eprintln!("perf_ledger refuses to run: {why}");
        return 2;
    }

    if let Some(kind) = &args.child {
        let Some(workload) = args.workload else {
            eprintln!("--child needs --workload");
            return 2;
        };
        let emit = match kind.as_str() {
            "e2e" => child_e2e(workload, args.seed, args.seconds, args.smoke, false),
            "setup" => child_e2e(workload, args.seed, args.seconds, args.smoke, true),
            "section" => child_section(workload, args.seed, args.scale, args.smoke),
            other => {
                eprintln!("unknown child kind {other}");
                return 2;
            }
        };
        emit.print();
        return 0;
    }

    let prov = Provenance::collect();
    let units = units();
    let seconds = if args.smoke { 0.2 } else { args.seconds };
    let outcome = (|| -> Result<bool, String> {
        if args.aa {
            return aa(&args, seconds, &prov);
        }
        print!("{}", prov.text());
        println!(
            "run.seed: {}\nrun.seconds: {seconds}\nrun.smoke: {}",
            args.seed, args.smoke
        );
        if let Some(workload) = args.workload {
            let result = run_one(workload, args.trace, args.seed, seconds, args.smoke)?;
            print_result(workload, args.trace, &result, &units);
            if args.trace {
                println!("trace files: {}", out_dir().display());
            }
            println!("{}", result_json(&result, &units));
            return Ok(true);
        }
        let t = Instant::now();
        let mut clean = true;
        for traced in [false, true] {
            for workload in Workload::ALL {
                let result = run_one(workload, traced, args.seed, seconds, args.smoke)?;
                print_result(workload, traced, &result, &units);
                clean &= result.failures.is_empty();
            }
        }
        println!("trace files: {}", out_dir().display());
        println!("full set wall: {:.1} s", t.elapsed().as_secs_f64());
        Ok(clean)
    })();
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(msg) => {
            eprintln!("perf_ledger failed: {msg}");
            1
        }
    }
}
