//! Self-tests of the benchmark harness: its statistics, its span
//! arithmetic, its declared names, and — in a release build — a smoke run
//! of every workload, untraced and traced, through the real binary.
//!
//! `cargo test --release --manifest-path perf_ledger/Cargo.toml` runs all of
//! it; without `--release` the binary must refuse to measure, and the smoke
//! test checks exactly that instead.

use std::collections::BTreeSet;
use std::process::Command;
use std::time::Instant;

use perf_ledger::metrics::{benchmark_json, Workload, END_TO_END, PER_LAYER};
use perf_ledger::spans::{self_time_table, self_times_ns, Recorder, Span};
use perf_ledger::stats::{
    blocks, iqr_share, median, min_count_for, percentile, quartiles, tail_ok, MAX_BLOCKS, MIN_TAIL,
};

#[test]
fn percentile_picker_demands_ten_samples_beyond() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 0.90), (90.0, 10));
    assert_eq!(percentile(&sorted, 0.50), (50.0, 50));
    assert_eq!(percentile(&sorted, 1.0), (100.0, 0));
    assert_eq!(percentile(&sorted[..1], 0.90), (1.0, 0));
    assert_eq!(MIN_TAIL, 10);
    assert!(tail_ok(100, 0.90));
    assert!(!tail_ok(99, 0.90));
    assert!(!tail_ok(0, 0.90));
    assert_eq!(min_count_for(0.90), 100);
    assert_eq!(min_count_for(0.999), 10_000);
    // Every count from the minimum up keeps the tail.
    assert!((100..400).all(|n| tail_ok(n, 0.90)));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    assert_eq!(median(&v), 5.5);
    assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
    assert_eq!(
        quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]),
        [1.75, 3.5, 5.25]
    );
    // Two samples: both outer quartiles extrapolate past the data, as Python's do.
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
}

#[test]
fn blocks_partition_the_samples_in_order() {
    let samples: Vec<f64> = (0..1234).map(f64::from).collect();
    for (len, want_blocks) in [(50, 1), (199, 1), (200, 2), (1234, 12), (5000, MAX_BLOCKS)] {
        let data: Vec<f64> = samples.iter().cycle().take(len).copied().collect();
        let blocks = blocks(&data, 100);
        assert_eq!(blocks.len(), want_blocks, "{len} samples");
        assert!(blocks.iter().all(|b| b.len() >= 100.min(len)));
        assert_eq!(
            blocks.concat(),
            data,
            "blocks are the samples, in order, once each"
        );
    }
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op_id: 0,
    }
}

#[test]
fn self_time_is_duration_minus_child_coverage() {
    let spans = vec![
        span("op", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 25, 60, Some(0)),    // overlaps `a`: union covers 10..60
        span("leaf", 30, 40, Some(2)), // grandchild: not subtracted from `op`
        span("late", 90, 130, Some(0)), // clipped to its parent's end
        span("solo", 200, 250, None),
    ];
    assert_eq!(
        self_times_ns(&spans),
        vec![100 - 50 - 10, 20, 35 - 10, 10, 40, 50]
    );

    let table = self_time_table([spans.as_slice(), spans.as_slice()]);
    let op = table.iter().find(|r| r.name == "op").expect("row");
    assert_eq!(op.count, 2);
    assert!((op.total_s - 200e-9).abs() < 1e-15);
    assert!((op.self_s - 80e-9).abs() < 1e-15);
    assert!(
        table.windows(2).all(|w| w[0].self_s >= w[1].self_s),
        "largest self time first"
    );
}

#[test]
fn recorder_nests_spans_and_links_parents() {
    let mut rec = Recorder::new(Instant::now());
    let got = rec.span("outer", 7, |rec| {
        rec.span("inner", 7, |_| std::hint::black_box(41)) + 1
    });
    assert_eq!(got, 42);
    rec.span("next", 8, |_| ());
    let spans = rec.into_spans();
    assert_eq!(
        spans.iter().map(|s| s.name).collect::<Vec<_>>(),
        ["outer", "inner", "next"]
    );
    assert_eq!(
        spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
        [None, Some(0), None]
    );
    assert_eq!(spans.iter().map(|s| s.op_id).collect::<Vec<_>>(), [7, 7, 8]);
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

    let mut off = Recorder::disabled();
    assert_eq!(off.span("ignored", 0, |_| 5), 5);
    assert!(off.into_spans().is_empty());
}

fn well_formed(text: &str, max: usize, extra: &str) -> bool {
    !text.is_empty()
        && text.len() <= max
        && text
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn declared_names_and_units_fit_the_contract() {
    let mut seen = BTreeSet::new();
    let names = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(well_formed(name, 64, "_.-"), "bad name {name}");
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "name {name} starts with punctuation"
        );
        assert!(seen.insert(name), "name {name} used twice");
    }
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(well_formed(unit, 16, "_/%.-"), "bad unit {unit}");
    }
    for w in Workload::ALL {
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "why of {} too long",
            w.name()
        );
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    assert!(setup.unit == "s" && !setup.higher_is_better);
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );
}

#[test]
fn committed_benchmark_json_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with `perf_ledger --print-benchmark-json`"
    );
    assert!(committed.len() <= 64 * 1024);
}

fn ledger(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perf_ledger"))
        .args(args)
        .env_remove("SOIFFT_FORCE_SCALAR")
        .output()
        .expect("run perf_ledger")
}

/// Metric names in a result line, in order of appearance.
fn result_names(stdout: &str) -> BTreeSet<String> {
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "unexpected result line: {line}"
    );
    let metrics = line.split_once("\"metrics\": {").expect("metrics object").1;
    let mut pieces: Vec<&str> = metrics.split("\": {\"value\": ").collect();
    pieces.pop(); // what follows the last metric's name is its value, not a name
    pieces
        .into_iter()
        .map(|piece| piece.rsplit_once('"').expect("a quoted name").1.to_string())
        .collect()
}

#[test]
fn smoke_run_emits_exactly_the_declared_names() {
    if cfg!(debug_assertions) {
        let out = ledger(&[
            "--workload",
            "soi_large",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "a debug build must refuse to measure"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("built without --release"));
        assert!(out.stdout.is_empty(), "a refusal prints no result");
        return;
    }
    let t = Instant::now();
    let end_to_end: BTreeSet<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    let per_layer: BTreeSet<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    for w in Workload::ALL {
        for (trace, declared) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = ledger(&[
                "--workload",
                w.name(),
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{} --trace {trace} failed: {stderr}",
                w.name()
            );
            let emitted = result_names(&String::from_utf8_lossy(&out.stdout));
            assert_eq!(&emitted, declared, "{} --trace {trace}", w.name());
        }
    }
    for file in [
        "soi_large.trace.json",
        "soi_small_tcp.self_time.txt",
        "ct_large.trace.json",
        "serve_closed.self_time.txt",
    ] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(file);
        assert!(
            std::fs::metadata(&path).is_ok_and(|m| m.len() > 0),
            "missing {}",
            path.display()
        );
    }
    assert!(
        t.elapsed().as_secs_f64() < 15.0,
        "smoke took {:?}",
        t.elapsed()
    );
}

#[test]
fn refuses_to_run_with_forced_scalar_kernels() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_ledger"))
        .args([
            "--workload",
            "ct_large",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .env("SOIFFT_FORCE_SCALAR", "1")
        .output()
        .expect("run perf_ledger");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn rejects_malformed_command_lines() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--bogus"],
    ] {
        let out = ledger(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
