//! Distributed Cooley–Tukey 1D FFT — the conventional baseline (Fig 1).
//!
//! This is the stand-in for MKL's cluster FFT: the classic transpose
//! algorithm with **three** all-to-all exchanges, against which SOI's
//! single exchange is compared (Figs 3, 8, 9). For `N = n1·n2`, with the
//! data viewed as an `n1 × n2` row-major matrix distributed by row blocks:
//!
//! ```text
//! y[c + d·n1] = Σ_b W_{n2}^{bd} · W_N^{bc} · (Σ_a W_{n1}^{ac} x[a·n2 + b])
//! ```
//!
//! 1. all-to-all transpose → each rank owns `n2/P` columns as rows,
//! 2. local `n1`-point FFTs + twiddle `W_N^{bc}` (fused, dynamic-block
//!    tables), under the Parseval guard of the plan's [`ValidationPolicy`],
//! 3. all-to-all transpose back → each rank owns `n1/P` result rows,
//! 4. local `n2`-point FFTs,
//! 5. all-to-all transpose → natural-order output distribution.
//!
//! Every entry point configures one private executor over a [`CtWorkspace`]:
//! plain or round-retrying exchange, checkpoint restore-or-run-then-save,
//! through the guard and checkpoint hooks SOI uses ([`soifft_cluster::abft`]).
//! Each transpose packs with a contiguous copy (every local row's slice
//! of a peer's columns, in row order) and the receiver does the actual
//! transposition, one staged [`transpose_strided`] sweep per arrived part
//! straight into place, through the workspace's stage; both reshuffles
//! are `pack` spans in the ledger.
//!
//! Constraints: `P | n1` and `P | n2`. Input and output are block
//! distributed in natural order (rank `r` holds elements
//! `[r·N/P, (r+1)·N/P)`), the same convention as
//! `soifft_core::SoiFft` (the ct crate does not depend on core, so this
//! is a textual reference).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use soifft_cluster::{
    abft, BitFlipSite, Comm, CommError, ExchangePolicy, RecoveryCtx, ValidationPolicy,
};
use soifft_fft::batch;
use soifft_fft::twiddle::DynamicBlock;
use soifft_fft::Plan;
use soifft_num::c64;
use soifft_num::factor::balanced_split;
use soifft_num::transpose::{stage_len, transpose_strided};

/// A planned distributed Cooley–Tukey transform.
#[derive(Debug)]
pub struct DistributedCtFft {
    n: usize,
    procs: usize,
    n1: usize,
    n2: usize,
    plan1: std::sync::Arc<Plan>,
    plan2: std::sync::Arc<Plan>,
    tw: DynamicBlock,
    validation: ValidationPolicy,
}

/// Reusable buffer set for [`DistributedCtFft::forward_into`]: the two
/// intermediate matrices, the pack/exchange slots, and the component-plan
/// scratch. Build once with [`DistributedCtFft::make_workspace`]; warm
/// calls through it run the whole three-transpose pipeline without heap
/// allocation (pack slots and received payloads recycle through the
/// communicator's buffer pool).
#[derive(Clone, Debug, Default)]
pub struct CtWorkspace {
    /// Per-destination pack slots (acquired from the pool each call).
    outgoing: Vec<Vec<c64>>,
    /// Received payloads of the in-flight exchange (recycled after unpack).
    incoming: Vec<Vec<c64>>,
    /// Columns after the first transpose (`n/P` elements).
    cols: Vec<c64>,
    /// Rows after the second transpose (`n/P` elements).
    rows: Vec<c64>,
    /// `n1`-point batch scratch: two lane-major buffers of four rows.
    s1: Vec<c64>,
    /// `n2`-point batch scratch.
    s2: Vec<c64>,
    /// Stage of the receive-side transposes, sized for both part shapes.
    stage: Vec<c64>,
}

/// Planning errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtError {
    /// No factorization `n = n1·n2` with `P | n1` and `P | n2` exists.
    NoDivisibleSplit {
        /// Transform length.
        n: usize,
        /// Rank count.
        procs: usize,
    },
}

impl std::fmt::Display for CtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtError::NoDivisibleSplit { n, procs } => write!(
                f,
                "N={n} admits no n1·n2 split with both factors divisible by P={procs}"
            ),
        }
    }
}

impl std::error::Error for CtError {}

/// Checkpoint key of the first transpose's result. The four keys are
/// `ct-`-prefixed so a shared store never confuses them with the SOI
/// phases; the two FFT keys also name those stages' crash points.
const TRANSPOSE_1: &str = "ct-transpose-1";
/// Columns after the `n1`-point FFTs + twiddle.
const FFT_1: &str = "ct-fft-1";
/// Result of the second all-to-all transpose.
const TRANSPOSE_2: &str = "ct-transpose-2";
/// Rows after the `n2`-point FFTs.
const FFT_2: &str = "ct-fft-2";

/// The hooks one superstep runs with; all `None` is the plain transform.
#[derive(Clone, Copy, Default)]
struct Run<'a> {
    /// Exchange through the typed, round-retrying collective.
    policy: Option<&'a ExchangePolicy>,
    /// Snapshot into, and resume from, this checkpoint context.
    ckpt: Option<&'a RecoveryCtx>,
}

impl Run<'_> {
    /// Whether `phase` had committed when this epoch launched.
    fn committed(&self, phase: &'static str) -> bool {
        self.ckpt.is_some_and(|ctx| ctx.committed(phase))
    }
}

impl DistributedCtFft {
    /// Plans a transform of length `n` over `procs` ranks, choosing the
    /// most balanced `n1 × n2` split with `P | n1` and `P | n2`.
    pub fn new(n: usize, procs: usize) -> Result<Self, CtError> {
        // Factor out P² and balance the rest.
        let p2 = procs * procs;
        if !n.is_multiple_of(p2) {
            return Err(CtError::NoDivisibleSplit { n, procs });
        }
        let (a, b) = balanced_split(n / p2);
        Ok(Self::with_split(n, procs, a * procs, b * procs))
    }

    /// Plans with an explicit split (`n1·n2 == n`, `P | n1`, `P | n2`).
    pub fn with_split(n: usize, procs: usize, n1: usize, n2: usize) -> Self {
        assert_eq!(n1 * n2, n, "n1·n2 must equal n");
        assert_eq!(n1 % procs, 0, "P must divide n1");
        assert_eq!(n2 % procs, 0, "P must divide n2");
        DistributedCtFft {
            n,
            procs,
            n1,
            n2,
            // Component plans come from the process-wide cache, shared
            // with every other transform of the same component sizes.
            plan1: soifft_fft::shared_plan(n1),
            plan2: soifft_fft::shared_plan(n2),
            tw: DynamicBlock::new(n),
            validation: ValidationPolicy::Off,
        }
    }

    /// Selects the silent-data-corruption defense: the first local FFT
    /// stage is guarded by the Parseval balance `E_out = n1·E_in` and
    /// checkpoint saves are read back. `CheckOnly` surfaces a violation as
    /// [`CommError::SilentCorruption`] (a panic on the infallible entry
    /// points); `Recover` first redoes the stage or the save, up to
    /// [`abft::RETRY_BUDGET`] times.
    pub fn with_validation(mut self, validation: ValidationPolicy) -> Self {
        self.validation = validation;
        self
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `(n1, n2)` decomposition.
    pub fn split(&self) -> (usize, usize) {
        (self.n1, self.n2)
    }

    /// A workspace sized for this plan, for [`DistributedCtFft::forward_into`].
    pub fn make_workspace(&self) -> CtWorkspace {
        let per = self.n / self.procs;
        let (r1, r2) = (self.n1 / self.procs, self.n2 / self.procs);
        CtWorkspace {
            outgoing: vec![Vec::new(); self.procs],
            incoming: Vec::with_capacity(self.procs),
            cols: vec![c64::ZERO; per],
            rows: vec![c64::ZERO; per],
            s1: self.plan1.make_batch_scratch(),
            s2: self.plan2.make_batch_scratch(),
            stage: vec![c64::ZERO; stage_len(r1, r2).max(stage_len(r2, r1))],
        }
    }

    /// Computes this rank's slice of `y = F_N x` (natural order in and
    /// out; three all-to-alls, matching Fig 1) through a fresh workspace;
    /// iterated transforms should use [`DistributedCtFft::forward_into`].
    pub fn forward(&self, comm: &mut Comm, local_input: &[c64]) -> Vec<c64> {
        self.run_fresh(comm, local_input, None, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`DistributedCtFft::forward`] against a caller-held workspace and
    /// output slice: after the first (warming) call, repeated transforms
    /// run the pack → exchange → FFT pipeline with zero heap allocation.
    pub fn forward_into(
        &self,
        comm: &mut Comm,
        local_input: &[c64],
        ws: &mut CtWorkspace,
        y: &mut [c64],
    ) {
        self.execute(comm, local_input, ws, y, Run::default())
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Throughput mode: `B` back-to-back transforms through one warm
    /// workspace (the baseline counterpart of
    /// `soifft_core::SoiFft::forward_many`).
    pub fn forward_many(&self, comm: &mut Comm, inputs: &[Vec<c64>]) -> Vec<Vec<c64>> {
        let mut ws = self.make_workspace();
        let mut outputs = vec![Vec::new(); inputs.len()];
        self.forward_many_into(comm, inputs, &mut ws, &mut outputs);
        outputs
    }

    /// [`DistributedCtFft::forward_many`] against a caller-planned
    /// workspace and output set (each slot resized to `N/P` as needed, so
    /// a reused output ring costs nothing after its first batch).
    pub fn forward_many_into(
        &self,
        comm: &mut Comm,
        inputs: &[Vec<c64>],
        ws: &mut CtWorkspace,
        outputs: &mut [Vec<c64>],
    ) {
        assert_eq!(inputs.len(), outputs.len(), "one output slot per input");
        let per = self.n / self.procs;
        for (x, y) in inputs.iter().zip(outputs.iter_mut()) {
            y.resize(per, c64::ZERO);
            self.forward_into(comm, x, ws, y);
        }
    }

    /// Fault-tolerant [`DistributedCtFft::forward`]: every all-to-all runs
    /// through the consensus-checked [`Comm::all_to_all_resilient`] under
    /// `policy`, so transient faults are retried and permanent failures
    /// surface as a typed [`CommError`] instead of a panic or a hang.
    /// Collective: every rank passes the same `policy`.
    pub fn try_forward(
        &self,
        comm: &mut Comm,
        local_input: &[c64],
        policy: &ExchangePolicy,
    ) -> Result<Vec<c64>, CommError> {
        self.run_fresh(comm, local_input, Some(policy), None)
    }

    /// Checkpointing [`DistributedCtFft::try_forward`] for supervised runs:
    /// each of the four intermediate stages snapshots into the
    /// supervisor's [`soifft_cluster::CheckpointStore`] (under
    /// `ct-`-prefixed keys), and a respawned epoch skips every globally
    /// committed transpose and resumes local work from this rank's own
    /// deepest snapshot. Run it under
    /// [`Supervisor::run`](soifft_cluster::Supervisor::run) with the
    /// [`RecoveryCtx`] it hands each rank. A missing or corrupt snapshot
    /// the resume needs returns [`CommError::CheckpointCorrupt`].
    pub fn try_forward_recoverable(
        &self,
        comm: &mut Comm,
        local_input: &[c64],
        policy: &ExchangePolicy,
        ctx: &RecoveryCtx,
    ) -> Result<Vec<c64>, CommError> {
        self.run_fresh(comm, local_input, Some(policy), Some(ctx))
    }

    /// [`DistributedCtFft::execute`] with these hooks, through a fresh
    /// workspace into a fresh output.
    fn run_fresh(
        &self,
        comm: &mut Comm,
        x: &[c64],
        policy: Option<&ExchangePolicy>,
        ckpt: Option<&RecoveryCtx>,
    ) -> Result<Vec<c64>, CommError> {
        let mut ws = self.make_workspace();
        let mut y = vec![c64::ZERO; self.n / self.procs];
        self.execute(comm, x, &mut ws, &mut y, Run { policy, ckpt })?;
        Ok(y)
    }

    /// The one superstep every entry point configures: asserts and the
    /// `"superstep"` span (closed on errors too) around the stages.
    fn execute(
        &self,
        comm: &mut Comm,
        x: &[c64],
        ws: &mut CtWorkspace,
        y: &mut [c64],
        run: Run,
    ) -> Result<(), CommError> {
        let per = self.n / self.procs;
        assert_eq!(comm.size(), self.procs, "cluster size != planned procs");
        assert_eq!(x.len(), per, "wrong local length");
        assert_eq!(y.len(), per, "wrong output length");
        let parties = run.ckpt.map_or(self.procs, |ctx| ctx.store().parties());
        assert_eq!(
            parties, self.procs,
            "checkpoint store sized for a different cluster"
        );
        comm.stats_mut().span_open("superstep");
        let result = self.stages(comm, x, ws, y, run);
        comm.stats_mut().span_close("superstep");
        result
    }

    /// The stage sequence. The frozen committed-phase list decides which
    /// transposes re-run, identically on every rank; a local FFT stage
    /// resumes from this rank's own snapshot, else from its transpose's.
    /// Stage `k` is pruned only once `k+1` commits, which needs this
    /// rank's own `k+1` save — so restores never race prunes.
    fn stages(
        &self,
        comm: &mut Comm,
        x: &[c64],
        ws: &mut CtWorkspace,
        y: &mut [c64],
        run: Run,
    ) -> Result<(), CommError> {
        let (n1, n2, v) = (self.n1, self.n2, self.validation);
        let fresh_t2 = !run.committed(TRANSPOSE_2) && !run.committed(FFT_2);
        if fresh_t2 {
            // n1×n2 → n2×n1: this rank's rows b ∈ [r·n2/P, ...).
            let fresh_t1 = !run.committed(TRANSPOSE_1);
            if fresh_t1 {
                let slots = (&mut ws.outgoing, &mut ws.incoming, &mut ws.stage[..]);
                transpose(comm, run.policy, x, (n1, n2), slots, &mut ws.cols)?;
                abft::save(comm, run.ckpt, v, TRANSPOSE_1, &ws.cols)?;
            }
            if let Ok(cols) = abft::restore(comm, run.ckpt, FFT_1) {
                ws.cols = cols;
            } else {
                if !fresh_t1 {
                    ws.cols = abft::restore(comm, run.ckpt, TRANSPOSE_1)?;
                }
                comm.crash_point(FFT_1);
                self.fft1_guarded(comm, ws)?;
                abft::save(comm, run.ckpt, v, FFT_1, &ws.cols)?;
            }
            // n2×n1 → n1×n2: rows c ∈ [r·n1/P, ...).
            let slots = (&mut ws.outgoing, &mut ws.incoming, &mut ws.stage[..]);
            transpose(comm, run.policy, &ws.cols, (n2, n1), slots, &mut ws.rows)?;
            abft::save(comm, run.ckpt, v, TRANSPOSE_2, &ws.rows)?;
        }
        if let Ok(rows) = abft::restore(comm, run.ckpt, FFT_2) {
            ws.rows = rows;
        } else {
            if !fresh_t2 {
                ws.rows = abft::restore(comm, run.ckpt, TRANSPOSE_2)?;
            }
            comm.crash_point(FFT_2);
            let t = comm.stats_mut().phase_start();
            batch::forward_rows_with(&self.plan2, &mut ws.rows, &mut ws.s2);
            comm.stats_mut().phase_end("local-fft", t);
            abft::save(comm, run.ckpt, v, FFT_2, &ws.rows)?;
        }
        // n1×n2 → n2×n1: output rows are d-major, i.e. natural order
        // y[d·n1 + c].
        let slots = (&mut ws.outgoing, &mut ws.incoming, &mut ws.stage[..]);
        transpose(comm, run.policy, &ws.rows, (n1, n2), slots, y)
    }

    /// The `n1`-FFT + twiddle stage over `ws.cols` under [`abft::guarded`]:
    /// an unnormalized `n1`-point DFT scales energy by exactly `n1` and the
    /// twiddles have unit modulus, so `E_out = n1·E_in` to roundoff. A
    /// repair redoes the stage from a copy of the pre-FFT columns.
    fn fft1_guarded(&self, comm: &mut Comm, ws: &mut CtWorkspace) -> Result<(), CommError> {
        let (rank, n1, v) = (comm.rank(), self.n1, self.validation);
        let CtWorkspace { cols, s1, .. } = ws;
        let e_in = v.is_on().then(|| abft::energy(cols));
        let pre = v.recovers().then(|| cols.clone());
        let t = comm.stats_mut().phase_start();
        self.fft1(rank, cols, s1);
        comm.stats_mut().phase_end("local-fft", t);
        let tol = abft::energy_tolerance(n1);
        let intact =
            |c: &[c64]| e_in.is_some_and(|e| abft::parseval_ok(e, abft::energy(c), n1, tol));
        let redo = |c: &mut [c64]| {
            c.copy_from_slice(pre.as_deref().expect("Recover keeps the pre-FFT columns"));
            self.fft1(rank, c, s1);
        };
        abft::guarded(comm, v, BitFlipSite::LocalFftBuffer, cols, intact, redo)
    }

    /// Local `n1`-point FFTs over `rank`'s transposed rows with the fused
    /// twiddle `W_N^{bc}` (dynamic-block tables, division-free walk).
    fn fft1(&self, rank: usize, cols: &mut [c64], scratch: &mut [c64]) {
        let b0 = rank * (self.n2 / self.procs);
        let count = cols.len() / self.n1;
        self.plan1
            .forward_batch_with(cols, self.n1, count, scratch, |i, row| {
                self.tw.mul_powers(row, b0 + i)
            });
    }
}

/// All-to-all transpose of a `rows × cols` row-major matrix distributed by
/// row blocks: each rank holds `rows/P` consecutive rows in; returns
/// `cols/P` consecutive rows of the transposed (`cols × rows`) matrix.
///
/// Requires `P | rows` and `P | cols`.
pub fn distributed_transpose(comm: &mut Comm, local: &[c64], rows: usize, cols: usize) -> Vec<c64> {
    let mut out = vec![c64::ZERO; local.len()];
    let p = comm.size();
    let mut stage = vec![c64::ZERO; stage_len(rows / p, cols / p)];
    let slots = (&mut vec![Vec::new(); p], &mut Vec::new(), &mut stage[..]);
    transpose(comm, None, local, (rows, cols), slots, &mut out).unwrap_or_else(|e| panic!("{e}"));
    out
}

/// The transpose stage: packs to rank `q` this rank's columns
/// `[q·out_rows, (q+1)·out_rows)` as a contiguous copy of each local row's
/// column range into a pooled slot; exchanges (round-retrying under a
/// `policy`); transposes each arrived part straight into `out` at column
/// offset `q·my_rows` through `stage`; and recycles what arrived, so
/// iterated transposes never allocate. Both reshuffles are `pack` spans.
///
/// A part is therefore the sender's `my_rows × out_rows` block in the
/// sender's row-major order (the receiver transposes); message count,
/// sizes, tags and order are unchanged: one all-to-all of `P` equal parts.
fn transpose(
    comm: &mut Comm,
    policy: Option<&ExchangePolicy>,
    local: &[c64],
    (rows, cols): (usize, usize),
    (outgoing, incoming, stage): (&mut Vec<Vec<c64>>, &mut Vec<Vec<c64>>, &mut [c64]),
    out: &mut [c64],
) -> Result<(), CommError> {
    let p = comm.size();
    assert_eq!(rows % p, 0, "P must divide rows");
    assert_eq!(cols % p, 0, "P must divide cols");
    let (my_rows, out_rows) = (rows / p, cols / p);
    assert_eq!(local.len(), my_rows * cols, "local shape mismatch");
    assert_eq!(out.len(), out_rows * rows, "output shape mismatch");

    comm.stats_mut().span_open("pack");
    for (q, slot) in outgoing.iter_mut().enumerate() {
        let c0 = q * out_rows;
        let mut buf = comm.acquire_buffer(out_rows * my_rows);
        for row in local.chunks_exact(cols) {
            buf.extend_from_slice(&row[c0..c0 + out_rows]);
        }
        *slot = buf;
    }
    comm.stats_mut().span_close("pack");

    match policy {
        Some(policy) => {
            *incoming = comm.all_to_all_resilient(outgoing, policy)?;
            // The resilient exchange borrows the outgoing buffers (it may
            // retransmit them across rounds); recycle them once it returns.
            for slot in outgoing.iter_mut() {
                comm.recycle_buffer(std::mem::take(slot));
            }
        }
        None => comm.all_to_all_into(outgoing, incoming),
    }

    // From rank q come its rows [q·my_rows, ...) restricted to my columns:
    // they become columns [q·my_rows, ...) of my out_rows × rows block.
    comm.stats_mut().span_open("pack");
    for (q, part) in incoming.iter().enumerate() {
        let dst = &mut out[q * my_rows..];
        transpose_strided(part, out_rows, dst, rows, (my_rows, out_rows), None, stage);
    }
    comm.stats_mut().span_close("pack");
    for buf in incoming.drain(..) {
        comm.recycle_buffer(buf);
    }
    Ok(())
}

/// A distributed 2D FFT (`rows × cols`, row-distributed), included to
/// substantiate the paper's introduction: "in-order 1D FFT is distinctly
/// more challenging than the 2D or 3D cases". Each rank starts with
/// complete rows, so the row-dimension FFTs are entirely local; ONE
/// all-to-all transpose hands out complete columns for the second pass —
/// versus the three exchanges of the conventional distributed 1D transform
/// above.
///
/// The output is left in *transposed* layout (rank `r` holds columns
/// `[r·cols/P, (r+1)·cols/P)` as rows), the convention real pencil codes
/// use to avoid paying a second transpose.
#[derive(Debug)]
pub struct Distributed2dFft {
    rows: usize,
    cols: usize,
    procs: usize,
    row_plan: std::sync::Arc<Plan>,
    col_plan: std::sync::Arc<Plan>,
}

impl Distributed2dFft {
    /// Plans a `rows × cols` transform over `procs` ranks
    /// (`P | rows`, `P | cols`).
    pub fn new(rows: usize, cols: usize, procs: usize) -> Self {
        assert_eq!(rows % procs, 0, "P must divide rows");
        assert_eq!(cols % procs, 0, "P must divide cols");
        Distributed2dFft {
            rows,
            cols,
            procs,
            row_plan: soifft_fft::shared_plan(cols),
            col_plan: soifft_fft::shared_plan(rows),
        }
    }

    /// The shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Forward transform: input is this rank's `rows/P` contiguous rows;
    /// output is its `cols/P` transposed result rows (length `rows` each).
    pub fn forward(&self, comm: &mut Comm, local_rows: &[c64]) -> Vec<c64> {
        assert_eq!(comm.size(), self.procs, "cluster size != planned procs");
        assert_eq!(
            local_rows.len(),
            self.rows / self.procs * self.cols,
            "wrong local shape"
        );
        // Row FFTs: fully local (each rank owns complete rows).
        let mut data = local_rows.to_vec();
        let t = comm.stats_mut().phase_start();
        batch::forward_rows(&self.row_plan, &mut data);
        comm.stats_mut().phase_end("local-fft", t);

        // ONE all-to-all transpose, then column FFTs (now local rows).
        let mut cols_local = distributed_transpose(comm, &data, self.rows, self.cols);
        let t = comm.stats_mut().phase_start();
        batch::forward_rows(&self.col_plan, &mut cols_local);
        comm.stats_mut().phase_end("local-fft", t);
        cols_local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soifft_cluster::{Cluster, ClusterConfig, FaultPlan, RankOutcome};
    use soifft_num::error::rel_linf;

    fn signal(n: usize) -> Vec<c64> {
        (0..n)
            .map(|i| c64::new((0.13 * i as f64).sin(), (0.29 * i as f64).cos() - 0.1))
            .collect()
    }

    fn scatter(x: &[c64], p: usize) -> Vec<Vec<c64>> {
        let per = x.len() / p;
        (0..p).map(|r| x[r * per..(r + 1) * per].to_vec()).collect()
    }

    #[test]
    fn distributed_transpose_matches_local() {
        // Parts of 300 and 350 rows span more than one 256-row band of
        // the receiver's transposing sweep; P=3 shapes have ragged sides.
        let shapes = [
            (8, 12, 4),
            (12, 8, 4),
            (6, 6, 3),
            (4, 4, 1),
            (16, 4, 2),
            (600, 8, 2),
            (21, 15, 3),
            (1050, 9, 3),
        ];
        for &(rows, cols, p) in &shapes {
            let m = signal(rows * cols);
            let parts = scatter(&m, p);
            let out = Cluster::run(p, |comm| {
                distributed_transpose(comm, &parts[comm.rank()], rows, cols)
            });
            let gathered: Vec<c64> = out.into_iter().flatten().collect();
            let mut expect = vec![c64::ZERO; rows * cols];
            soifft_num::transpose::transpose(&m, &mut expect, rows, cols);
            assert_eq!(gathered, expect, "{rows}x{cols} P={p}");
        }
    }

    #[test]
    fn transform_matches_reference_fft() {
        for p in [1, 2, 4] {
            let n = 1 << 10;
            let x = signal(n);
            let parts = scatter(&x, p);
            let fft = DistributedCtFft::new(n, p).unwrap();
            let out = Cluster::run(p, |comm| fft.forward(comm, &parts[comm.rank()]));
            let got: Vec<c64> = out.into_iter().flatten().collect();
            let plan = Plan::new(n);
            let mut want = x.clone();
            plan.forward(&mut want);
            let err = rel_linf(&got, &want);
            assert!(err < 1e-10, "P={p}: err={err:.3e}");
        }
    }

    #[test]
    fn nonpow2_lengths_work() {
        let p = 3;
        let n = 9 * 36; // n1=18, n2=18 both divisible by 3
        let x = signal(n);
        let parts = scatter(&x, p);
        let fft = DistributedCtFft::new(n, p).unwrap();
        let out = Cluster::run(p, |comm| fft.forward(comm, &parts[comm.rank()]));
        let got: Vec<c64> = out.into_iter().flatten().collect();
        let plan = Plan::new(n);
        let mut want = x.clone();
        plan.forward(&mut want);
        assert!(rel_linf(&got, &want) < 1e-10);
    }

    #[test]
    fn exactly_three_all_to_alls() {
        let p = 4;
        let n = 1 << 10;
        let x = signal(n);
        let parts = scatter(&x, p);
        let fft = DistributedCtFft::new(n, p).unwrap();
        let stats = Cluster::run(p, |comm| {
            fft.forward(comm, &parts[comm.rank()]);
            comm.stats().clone()
        });
        for s in &stats {
            assert_eq!(s.count_of("all-to-all"), 3, "Fig 1: CT needs 3 exchanges");
            assert_eq!(s.count_of("ghost"), 0);
        }
    }

    #[test]
    fn single_rank_degenerates_to_local_fft() {
        let n = 1 << 8;
        let x = signal(n);
        let fft = DistributedCtFft::new(n, 1).unwrap();
        let out = Cluster::run(1, |comm| fft.forward(comm, &x));
        let mut want = x.clone();
        Plan::new(n).forward(&mut want);
        assert!(rel_linf(&out[0], &want) < 1e-11);
    }

    #[test]
    fn unbalanced_explicit_split_still_correct() {
        let p = 2;
        let n = 4 * 64; // n1 = 4, n2 = 64 — maximally skewed
        let x = signal(n);
        let parts = scatter(&x, p);
        let fft = DistributedCtFft::with_split(n, p, 4, 64);
        let out = Cluster::run(p, |comm| fft.forward(comm, &parts[comm.rank()]));
        let got: Vec<c64> = out.into_iter().flatten().collect();
        let mut want = x.clone();
        Plan::new(n).forward(&mut want);
        assert!(rel_linf(&got, &want) < 1e-11);
    }

    #[test]
    fn local_fft_phase_recorded_twice() {
        // The two local FFT stages both land in the ledger.
        let p = 2;
        let n = 1 << 8;
        let x = signal(n);
        let parts = scatter(&x, p);
        let fft = DistributedCtFft::new(n, p).unwrap();
        let stats = Cluster::run(p, |comm| {
            fft.forward(comm, &parts[comm.rank()]);
            comm.stats().clone()
        });
        for s in &stats {
            assert_eq!(s.count_of("local-fft"), 2);
        }
    }

    #[test]
    fn traced_forward_into_records_every_reshuffle_as_a_pack_span() {
        // Each transpose's pack and unpack sweep is a `pack` span around
        // its exchange; the flat phase records stay the five stages.
        let p = 4;
        let n = 1 << 10;
        let parts = scatter(&signal(n), p);
        let fft = DistributedCtFft::new(n, p).unwrap();
        let stats = Cluster::run(p, |comm| {
            let mut ws = fft.make_workspace();
            let mut y = vec![c64::ZERO; n / p];
            comm.stats_mut().enable_trace(std::time::Instant::now());
            fft.forward_into(comm, &parts[comm.rank()], &mut ws, &mut y);
            comm.stats().clone()
        });
        let (a2a, fft_) = ("all-to-all", "local-fft");
        for s in &stats {
            let records: Vec<&str> = s.records().iter().map(|r| r.name).collect();
            assert_eq!(records, [a2a, fft_, a2a, fft_, a2a]);
            let events: Vec<&str> = s.trace_events().iter().map(|e| e.name).collect();
            let transpose = ["pack", a2a, "pack"];
            let want = [
                &transpose[..],
                &[fft_],
                &transpose,
                &[fft_],
                &transpose,
                &["superstep"],
            ];
            assert_eq!(events, want.concat());
        }
    }

    #[test]
    fn total_bytes_equal_three_transposes() {
        let p = 4;
        let n = 1 << 10;
        let x = signal(n);
        let parts = scatter(&x, p);
        let fft = DistributedCtFft::new(n, p).unwrap();
        let stats = Cluster::run(p, |comm| {
            fft.forward(comm, &parts[comm.rank()]);
            comm.stats().total_bytes_sent()
        });
        // Each transpose ships this rank's whole slice (including the
        // self-block, which the accounting counts as sent).
        let per_rank_bytes = (n / p * 16) as u64;
        for &b in &stats {
            assert_eq!(b, 3 * per_rank_bytes);
        }
    }

    #[test]
    fn distributed_2d_matches_row_column_reference_and_uses_one_alltoall() {
        let (rows, cols, p) = (16usize, 24usize, 4usize);
        let x = signal(rows * cols);
        let per = rows / p * cols;
        let parts: Vec<Vec<c64>> = (0..p).map(|r| x[r * per..(r + 1) * per].to_vec()).collect();
        let fft = Distributed2dFft::new(rows, cols, p);
        let runs = Cluster::run(p, |comm| {
            let y = fft.forward(comm, &parts[comm.rank()]);
            (y, comm.stats().count_of("all-to-all"))
        });
        // The paper's intro claim, measured: 1 all-to-all (vs the 1D
        // transform's 3 above).
        assert!(runs.iter().all(|(_, a2a)| *a2a == 1));

        // Assemble the (transposed) distributed result and compare with a
        // node-local row-column 2D FFT: rows, transpose, then the columns
        // (now rows), which leaves the spectrum transposed as well.
        let mut want = x.clone();
        batch::forward_rows(&Plan::new(cols), &mut want);
        let mut want_t = vec![c64::ZERO; rows * cols];
        soifft_num::transpose::transpose(&want, &mut want_t, rows, cols);
        batch::forward_rows(&Plan::new(rows), &mut want_t);
        let got: Vec<c64> = runs.iter().flat_map(|(y, _)| y.iter().copied()).collect();
        assert!(rel_linf(&got, &want_t) < 1e-10);
    }

    #[test]
    fn try_forward_matches_forward_on_healthy_cluster() {
        let p = 4;
        let n = 1 << 10;
        let x = signal(n);
        let parts = scatter(&x, p);
        let fft = DistributedCtFft::new(n, p).unwrap();
        let plain = Cluster::run(p, |comm| fft.forward(comm, &parts[comm.rank()]));
        let resilient = Cluster::run(p, |comm| {
            fft.try_forward(comm, &parts[comm.rank()], &ExchangePolicy::default())
                .expect("healthy cluster")
        });
        assert_eq!(plain, resilient);
    }

    #[test]
    fn planning_errors() {
        assert!(DistributedCtFft::new(1 << 10, 3).is_err()); // 9 ∤ 1024
        let e = DistributedCtFft::new(100, 8).unwrap_err();
        assert!(e.to_string().contains("P=8"));
    }

    #[test]
    fn explicit_split_metadata() {
        let fft = DistributedCtFft::with_split(1 << 10, 4, 32, 32);
        assert_eq!(fft.len(), 1 << 10);
        assert_eq!(fft.split(), (32, 32));
        assert!(!fft.is_empty());
    }

    #[test]
    #[should_panic(expected = "P must divide n1")]
    fn bad_split_panics() {
        DistributedCtFft::with_split(12, 4, 3, 4);
    }

    fn run_validated(
        plan: Option<FaultPlan>,
        validation: ValidationPolicy,
    ) -> Vec<RankOutcome<Result<Vec<c64>, CommError>>> {
        let p = 4;
        let n = 1 << 10;
        let x = signal(n);
        let parts = scatter(&x, p);
        let fft = DistributedCtFft::new(n, p)
            .unwrap()
            .with_validation(validation);
        let config = match plan {
            Some(plan) => ClusterConfig::with_faults(plan),
            None => ClusterConfig::default(),
        };
        Cluster::run_with(config, p, move |comm| {
            fft.try_forward(comm, &parts[comm.rank()], &ExchangePolicy::default())
        })
    }

    fn outputs_of(runs: Vec<RankOutcome<Result<Vec<c64>, CommError>>>) -> Vec<c64> {
        runs.into_iter()
            .flat_map(|o| match o {
                RankOutcome::Ok(Ok(y)) => y,
                other => panic!("rank did not complete: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn fft1_flip_slips_through_when_validation_is_off() {
        let clean = outputs_of(run_validated(None, ValidationPolicy::Off));
        let plan = FaultPlan::new(77).bit_flip(2, BitFlipSite::LocalFftBuffer);
        let flipped = outputs_of(run_validated(Some(plan), ValidationPolicy::Off));
        assert_ne!(
            clean, flipped,
            "an unchecked flip must corrupt the spectrum"
        );
    }

    #[test]
    fn fft1_flip_is_detected_under_check_only() {
        let plan = FaultPlan::new(77).bit_flip(2, BitFlipSite::LocalFftBuffer);
        let runs = run_validated(Some(plan), ValidationPolicy::CheckOnly);
        let mut detected = false;
        for (rank, o) in runs.into_iter().enumerate() {
            match o {
                RankOutcome::Ok(Err(CommError::SilentCorruption { rank: r, .. })) => {
                    assert_eq!(r, 2, "localized to the flipped rank");
                    detected = true;
                }
                // Peers fail collaterally when the victim aborts the
                // collective, or may finish if the abort lands late.
                RankOutcome::Ok(_) => {}
                other => panic!("rank {rank}: unexpected outcome {other:?}"),
            }
        }
        assert!(detected, "the flipped rank must report SilentCorruption");
    }

    #[test]
    fn fft1_flip_is_repaired_under_recover_bit_identically() {
        let clean = outputs_of(run_validated(None, ValidationPolicy::Recover));
        let plan = FaultPlan::new(77).bit_flip(2, BitFlipSite::LocalFftBuffer);
        let repaired = outputs_of(run_validated(Some(plan), ValidationPolicy::Recover));
        assert_eq!(clean, repaired, "repair must be bit-identical");
    }
}
