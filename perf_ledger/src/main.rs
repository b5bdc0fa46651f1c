//! `perf_ledger` binary: see `perf_ledger::cli` and `README.md`.

fn main() {
    std::process::exit(perf_ledger::cli::main());
}
