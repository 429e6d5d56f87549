//! `reproduce` — regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce [--scale S] [--out DIR] [--iters N] <command> [arg]
//!
//! commands:
//!   fig1       CSR arrays for the worked example (Fig. 1)
//!   table1     CSR-DU ctl stream for the worked example (Table I)
//!   fig4       CSR-VI value structure for the worked example (Fig. 4)
//!   table2     overall CSR performance (Table II)
//!   table3     CSR-DU vs CSR (Table III)
//!   table4     CSR-VI vs CSR (Table IV)
//!   fig7       per-matrix CSR-DU speedups + size reductions (Fig. 7)
//!   fig8       per-matrix CSR-VI speedups + size reductions (Fig. 8)
//!   ablation-du         delta-width histogram & seq-unit ablation (A1)
//!   ablation-widen      CSR-DU encoder parameter sweep (A1b)
//!   ablation-ordering   ordering sensitivity: original/scrambled/RCM (A1c)
//!   ablation-partition  row/column/block partitioning comparison (A3)
//!   validate   analytic model vs exact cache-trace simulation
//!   verify     structural validate() + CSR cross-check of every format
//!   check-bench [FILE]   validate a BENCH.json against the schema (CI gate)
//!   plan       planner-chosen cell per matrix -> BENCH.json + PLANCACHE
//!   graph      SpMSpV BFS/PageRank drivers + density sweep -> BENCH.json
//!   all        every command from fig1 to verify above, in order
//! ```
//!
//! `--scale` shrinks the corpus working sets (default 1.0 = paper scale;
//! use e.g. 0.05 for a quick run). Scaling changes absolute working sets,
//! so set membership stays keyed to matrix ids as in the paper.
//! `--out DIR` additionally writes each artifact as JSON for downstream
//! plotting (and is where `plan` and `graph` put `BENCH.json`; default
//! `.`). `--iters N` overrides the timed iteration count of `plan` and
//! `graph`.
//!
//! Kernel performance is measured by perfbench (`perfbench/` at the
//! repository root), which runs the paper's §VI-A protocol; `reproduce`
//! regenerates the modelled tables, verifies the formats and plans.

use spmv_bench::figures::{figure_series, format_figure};
use spmv_bench::runner::{evaluate_corpus, EvalOptions};
use spmv_bench::tables::{compare_table, format_compare, format_table2, table2};
use spmv_core::csr_du::{CsrDu, DuOptions};
use spmv_core::csr_vi::CsrVi;
use spmv_core::examples::paper_matrix;
use spmv_core::{Csc, Csr};
use spmv_parallel::{ParCscColumns, ParCsr, ParCsrBlock2d, ParSpMv};
use std::io::Write;
use std::path::PathBuf;

#[derive(Debug)]
struct Args {
    scale: f64,
    out: Option<PathBuf>,
    iters: Option<usize>,
    command: String,
    /// Optional positional argument after the command (check-bench FILE).
    arg: Option<String>,
}

/// Typed command-line failures — every malformed flag becomes one of
/// these (printed with usage, exit code 2) instead of an `expect` panic.
#[derive(Debug)]
enum CliError {
    /// A flag was given without its value.
    MissingValue(&'static str),
    /// A flag's value failed validation; carries the reason.
    Invalid { flag: &'static str, reason: String },
    /// A stray positional argument after command and arg were consumed.
    Unexpected(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::Invalid { flag, reason } => write!(f, "{flag}: {reason}"),
            CliError::Unexpected(arg) => write!(f, "unexpected argument: {arg}"),
        }
    }
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, CliError> {
    let mut scale = 1.0f64;
    let mut out = None;
    let mut iters = None;
    let mut command = None;
    let mut extra = None;
    let mut it = argv;
    let value = |flag: &'static str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or(CliError::MissingValue(flag))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = value("--scale", &mut it)?.parse().map_err(|e| CliError::Invalid {
                    flag: "--scale",
                    reason: format!("not a number ({e})"),
                })?;
            }
            "--out" => out = Some(PathBuf::from(value("--out", &mut it)?)),
            "--iters" => {
                let n: usize =
                    value("--iters", &mut it)?.parse().map_err(|e| CliError::Invalid {
                        flag: "--iters",
                        reason: format!("not a positive integer ({e})"),
                    })?;
                if n == 0 {
                    return Err(CliError::Invalid {
                        flag: "--iters",
                        reason: "must be >= 1".into(),
                    });
                }
                iters = Some(n);
            }
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            c if command.is_none() => command = Some(c.to_string()),
            c if extra.is_none() => extra = Some(c.to_string()),
            other => return Err(CliError::Unexpected(other.to_string())),
        }
    }
    Ok(Args {
        scale,
        out,
        iters,
        command: command.unwrap_or_else(|| "all".to_string()),
        arg: extra,
    })
}

const HELP: &str = "reproduce [--scale S] [--out DIR] [--iters N] \
<fig1|table1|fig4|table2|table3|table4|fig7|fig8|ablation-du|ablation-widen|\
ablation-ordering|ablation-partition|validate|verify|check-bench|plan|graph|all> [arg]\n";

fn write_json(out: &Option<PathBuf>, name: &str, value: &impl serde::Serialize) {
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create --out dir");
        let path = dir.join(format!("{name}.json"));
        let mut f = std::fs::File::create(&path).expect("create JSON artifact");
        serde_json::to_writer_pretty(&mut f, value).expect("serialize artifact");
        writeln!(f).ok();
        eprintln!("  wrote {}", path.display());
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("reproduce: {e}\n{HELP}");
            std::process::exit(2);
        }
    };
    let needs_corpus =
        matches!(args.command.as_str(), "table2" | "table3" | "table4" | "fig7" | "fig8" | "all");

    let results = if needs_corpus {
        let opts = EvalOptions { scale: args.scale, ..Default::default() };
        eprintln!(
            "evaluating corpus at scale {} (77 matrices of M0; this builds every matrix \
             and format)...",
            args.scale
        );
        let mut n = 0usize;
        evaluate_corpus(&opts, false, |r| {
            n += 1;
            eprintln!(
                "  [{n:>2}/77] id {:>3} {:<12} ws {:>7.1} MB  nnz {:>9}  ttu {:>8.1}",
                r.id,
                r.name,
                r.ws_bytes as f64 / (1 << 20) as f64,
                r.nnz,
                r.ttu
            );
        })
    } else {
        Vec::new()
    };

    let run = |cmd: &str| match cmd {
        "fig1" => fig1(),
        "table1" => table1(),
        "fig4" => fig4(),
        "table2" => {
            let rows = table2(&results);
            println!("\n== Table II: overall CSR SpMxV performance (serial row = MFLOP/s; other rows = speedup vs serial CSR) ==\n");
            println!("{}", format_table2(&rows));
            write_json(&args.out, "table2", &rows);
        }
        "table3" => {
            let rows = compare_table(&results, "CSR-DU", false);
            println!("\n== Table III: CSR-DU vs CSR at equal thread counts ==\n");
            println!("{}", format_compare(&rows, "MS ", "ML ", "M0"));
            write_json(&args.out, "table3", &rows);
        }
        "table4" => {
            let rows = compare_table(&results, "CSR-VI", true);
            println!("\n== Table IV: CSR-VI vs CSR at equal thread counts (M0-vi: ttu > 5) ==\n");
            println!("{}", format_compare(&rows, "MSvi ", "MLvi ", "M0vi"));
            write_json(&args.out, "table4", &rows);
        }
        "fig7" => {
            let series = figure_series(&results, "CSR-DU", |r| r.in_m0);
            println!("\n== Fig. 7: CSR-DU speedups vs serial CSR, sorted (size reduction %) ==\n");
            println!("{}", format_figure(&series, "CSR-DU"));
            write_json(&args.out, "fig7", &series);
        }
        "fig8" => {
            let series = figure_series(&results, "CSR-VI", |r| r.in_m0_vi);
            println!("\n== Fig. 8: CSR-VI speedups vs serial CSR, sorted (size reduction %) ==\n");
            println!("{}", format_figure(&series, "CSR-VI"));
            write_json(&args.out, "fig8", &series);
        }
        "ablation-du" => ablation_du(&args),
        "ablation-widen" => ablation_widen(),
        "ablation-ordering" => ablation_ordering(),
        "ablation-partition" => ablation_partition(),
        "validate" => validate_model(),
        "verify" => {
            if !verify(&args) {
                std::process::exit(1);
            }
        }
        "check-bench" => {
            if !check_bench(&args) {
                std::process::exit(1);
            }
        }
        "plan" => plan_cmd(&args),
        "graph" => graph_cmd(&args),
        other => {
            eprintln!("unknown command: {other}\n{HELP}");
            std::process::exit(2);
        }
    };

    if args.command == "all" {
        for cmd in [
            "fig1",
            "table1",
            "fig4",
            "table2",
            "table3",
            "table4",
            "fig7",
            "fig8",
            "ablation-du",
            "ablation-widen",
            "ablation-ordering",
            "ablation-partition",
            "validate",
            "verify",
        ] {
            run(cmd);
        }
    } else {
        run(&args.command);
    }
}

/// Fig. 1: the CSR arrays of the worked example.
fn fig1() {
    let csr: Csr = paper_matrix().to_csr();
    println!("\n== Fig. 1: CSR storage of the 6x6 example matrix ==\n");
    println!("row_ptr: {:?}", csr.row_ptr());
    println!("col_ind: {:?}", csr.col_ind());
    println!("values:  {:?}", csr.values());
}

/// Table I: the ctl stream of the worked example.
fn table1() {
    let csr: Csr = paper_matrix().to_csr();
    let du = CsrDu::from_csr(&csr, &DuOptions::default());
    println!("\n== Table I: ctl structure for the example matrix ==\n");
    println!("{:<6} {:<10} {:<6} {:<6} {:<12}", "unit", "uflags", "usize", "ujmp", "ucis");
    let cursor = du.cursor();
    let mut prev_end_col = 0usize;
    for (i, unit) in du.cursor().enumerate() {
        let cols = cursor.unit_cols(&unit);
        let deltas: Vec<usize> = cols.windows(2).map(|w| w[1] - w[0]).collect();
        let jmp = if unit.new_row { unit.first_col } else { unit.first_col - prev_end_col };
        println!(
            "{:<6} {:<10} {:<6} {:<6} {:<12}",
            i,
            format!("{:?},{}", unit.utype, if unit.new_row { "NR" } else { "--" }),
            unit.len,
            jmp,
            deltas.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(",")
        );
        prev_end_col = *cols.last().expect("unit is nonempty");
    }
    println!(
        "\nctl size: {} bytes (CSR index data: {} bytes)",
        du.ctl().len(),
        csr.nnz() * 4 + (csr.nrows() + 1) * 4
    );
}

/// Fig. 4: the CSR-VI value structure of the worked example.
fn fig4() {
    let csr: Csr = paper_matrix().to_csr();
    let vi = CsrVi::from_csr(&csr);
    println!("\n== Fig. 4: CSR-VI value indexing for the example matrix ==\n");
    println!("vals_unique: {:?}", vi.vals_unique());
    let ind: Vec<usize> = (0..vi.nnz()).map(|j| vi.val_ind().get(j)).collect();
    println!("val_ind:     {ind:?}");
    println!("index width: {} byte(s), ttu = {:.2}", vi.val_ind().width_bytes(), vi.ttu());
}

/// Ablation A1: unit-width histogram and the effect of seq units on
/// compression, across structural classes.
fn ablation_du(args: &Args) {
    println!("\n== Ablation A1: CSR-DU encoder design choices ==\n");
    let cases: Vec<(&str, spmv_core::Coo)> = vec![
        ("banded", spmv_matgen::gen::banded(60_000, 8, 0.9, 1)),
        ("stencil2d", spmv_matgen::gen::stencil_2d(260, 260)),
        ("blockfem", spmv_matgen::gen::block_fem(22_000, 3)),
        ("powerlaw", spmv_matgen::gen::power_law(60_000, 8, 2)),
        ("random", spmv_matgen::gen::random_uniform(60_000, 8, 3)),
    ];
    println!(
        "{:<10} {:>9} | {:>6} {:>6} {:>6} {:>6} {:>6} | {:>9} {:>9} {:>8}",
        "matrix", "nnz", "u8%", "u16%", "u32%", "u64%", "seq%", "ctlB/nnz", "seqB/nnz", "avg unit"
    );
    let mut records = Vec::new();
    for (name, coo) in cases {
        let csr = coo.to_csr();
        let plain = CsrDu::from_csr(&csr, &DuOptions::default());
        let seq = CsrDu::from_csr(&csr, &DuOptions::with_seq());
        let s = plain.stats();
        let s_seq = seq.stats();
        let pct = |k: usize| 100.0 * s.nnz_by_type[k] as f64 / s.nnz.max(1) as f64;
        println!(
            "{:<10} {:>9} | {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} | {:>9.2} {:>9.2} {:>8.1}",
            name,
            s.nnz,
            pct(0),
            pct(1),
            pct(2),
            pct(3),
            100.0 * s_seq.nnz_by_type[4] as f64 / s.nnz.max(1) as f64,
            s.ctl_bytes_per_nnz(),
            s_seq.ctl_bytes_per_nnz(),
            s.avg_unit_len()
        );
        records.push((name.to_string(), s.ctl_bytes_per_nnz(), s_seq.ctl_bytes_per_nnz()));
    }
    write_json(&args.out, "ablation-du", &records);
}

/// Ablation A1b: CSR-DU encoder parameter sweep — how the widen/split
/// threshold and the unit size cap trade compression against unit count.
fn ablation_widen() {
    println!("\n== Ablation A1b: CSR-DU encoder parameters ==\n");
    let coo = spmv_matgen::gen::power_law(60_000, 8, 2); // mixed deltas
    let csr = coo.to_csr();
    println!(
        "{:>8} {:>9} | {:>9} {:>9} {:>9}",
        "widen", "max_unit", "ctlB/nnz", "units", "avg unit"
    );
    for widen in [1usize, 2, 4, 8, 16] {
        for max_unit in [64usize, 255] {
            let opts = DuOptions { widen_threshold: widen, max_unit, ..Default::default() };
            let du = CsrDu::from_csr(&csr, &opts);
            let s = du.stats();
            println!(
                "{widen:>8} {max_unit:>9} | {:>9.3} {:>9} {:>9.1}",
                s.ctl_bytes_per_nnz(),
                s.units,
                s.avg_unit_len()
            );
        }
    }
    println!("\n(small widen thresholds split eagerly into narrow units; large ones\n widen in place — the default 4 balances header overhead vs delta width)");
}

/// Ablation A1c: ordering sensitivity — the same matrix in its natural
/// banded order, randomly scrambled, and restored with RCM.
fn ablation_ordering() {
    use spmv_matgen::permute::{bandwidth, permute_symmetric, rcm_permutation, scramble};
    println!("\n== Ablation A1c: ordering sensitivity of index compression ==\n");
    let original = spmv_matgen::gen::banded(60_000, 6, 1.0, 5);
    let scrambled = scramble(&original, 6);
    let restored = permute_symmetric(&scrambled, &rcm_permutation(&scrambled));
    println!(
        "{:<12} {:>10} | {:>9} {:>9} | {:>10}",
        "ordering", "bandwidth", "ctlB/nnz", "red.%", "x span"
    );
    for (name, coo) in [("original", &original), ("scrambled", &scrambled), ("rcm", &restored)] {
        let csr = coo.to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let profile = spmv_memsim::MatrixProfile::from_csr(&csr);
        println!(
            "{name:<12} {:>10} | {:>9.2} {:>9.1} | {:>10.0}",
            bandwidth(coo),
            du.stats().ctl_bytes_per_nnz(),
            du.size_report().reduction() * 100.0,
            profile.avg_row_span,
        );
    }
    println!("\n(delta encoding lives on ordering-induced locality: scrambling inflates\n the ctl stream and the x access window; RCM restores both)");
}

/// Ablation A3: row vs column vs 2-D block partitioning, wall-clock on
/// this host (shape only — modeled scaling lives in the simulated tables).
fn ablation_partition() {
    println!("\n== Ablation A3: partitioning schemes (§II-C), wall-clock on this host ==\n");
    let coo = spmv_matgen::gen::stencil_2d(400, 400);
    let csr = coo.to_csr();
    let csc = Csc::from_csr(&csr).unwrap();
    let x = spmv_bench::measured::random_x::<f64>(csr.ncols(), 1);
    let mut y = vec![0.0; csr.nrows()];
    let iters = 20;

    for threads in [1usize, 2, 4] {
        let mut row = ParCsr::new(&csr, threads);
        let mut col = ParCscColumns::new(&csc, threads);
        let mut block = ParCsrBlock2d::new(&csr, threads);
        let mut time = |f: &mut dyn FnMut(&mut [f64])| {
            f(&mut y); // warm
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                f(&mut y);
            }
            t0.elapsed().as_secs_f64() / iters as f64
        };
        let t_row = time(&mut |y: &mut [f64]| row.par_spmv(&x, y));
        let t_col = time(&mut |y: &mut [f64]| col.par_spmv(&x, y));
        let t_blk = time(&mut |y: &mut [f64]| block.par_spmv(&x, y));
        println!(
            "threads {threads}: row {:.3} ms | column(+reduce) {:.3} ms | block2d {:.3} ms",
            t_row * 1e3,
            t_col * 1e3,
            t_blk * 1e3
        );
    }
    println!(
        "\n(row partitioning avoids the column scheme's y-reduction and the block\n \
         scheme's per-row tile lookups — the paper's reason for choosing it)"
    );
}

/// Validates the analytic performance model against the exact cache-trace
/// simulator on down-scaled matrices (one die's L2, serial placement).
fn validate_model() {
    use spmv_memsim::trace::simulate_csr_spmv;
    use spmv_memsim::{predict, FormatCost, MatrixProfile, Placement, SimConfig};
    println!("\n== Model validation: analytic predictor vs cache-trace simulation ==\n");
    println!("(serial placement, one 4 MB L2; traffic per iteration in MB)\n");
    let cfg = SimConfig::default();
    let geo = cfg.machine.l2;
    let cases: Vec<(&str, spmv_core::Coo)> = vec![
        ("banded-small", spmv_matgen::gen::banded(30_000, 6, 1.0, 1)),
        ("banded-large", spmv_matgen::gen::banded(120_000, 6, 1.0, 2)),
        ("stencil2d", spmv_matgen::gen::stencil_2d(300, 300)),
        ("powerlaw", spmv_matgen::gen::power_law(120_000, 8, 3)),
        ("random", spmv_matgen::gen::random_uniform(120_000, 8, 4)),
    ];
    println!(
        "{:<14} {:>9} {:>8} | {:>10} {:>10} | {:>8}",
        "matrix", "nnz", "ws(MB)", "model", "trace", "ratio"
    );
    for (name, coo) in cases {
        let csr: spmv_core::Csr = coo.to_csr();
        let profile = MatrixProfile::from_csr(&csr);
        let fc = FormatCost::csr(&csr, &cfg.cost).expect("non-degenerate case matrix");
        let p = predict(&profile, &fc, &Placement::serial(), &cfg);
        let t = simulate_csr_spmv(&csr, geo, 1);
        let model_mb = p.traffic_bytes / (1 << 20) as f64;
        let trace_mb = t.miss_bytes() as f64 / (1 << 20) as f64;
        let ratio = if trace_mb > 0.0 { model_mb / trace_mb } else { f64::NAN };
        println!(
            "{name:<14} {:>9} {:>8.2} | {:>10.3} {:>10.3} | {:>8.2}",
            csr.nnz(),
            csr.working_set().total() as f64 / (1 << 20) as f64,
            model_mb,
            trace_mb,
            ratio
        );
    }
    println!("\n(ratios near 1 mean the closed-form allocator matches LRU behaviour;\n the analytic model exists because tracing 100 full-size matrices x 4\n formats x 5 placements is computationally infeasible)");
}

/// Verify mode: for every corpus matrix, build every format, re-prove its
/// structural invariants with `validate()`, and cross-check its SpMV result
/// against the CSR baseline row-by-row within a ULP tolerance
/// (`CheckedSpMv`). Returns `false` (and the process exits non-zero) if any
/// format fails either check.
fn verify(args: &Args) -> bool {
    use spmv_core::prelude::*;

    // Verification builds ~12 formats per matrix; cap the working sets so
    // a full-corpus pass stays tractable.
    let scale = args.scale.min(0.25);
    let corpus = spmv_matgen::corpus::corpus_scaled(scale);
    println!("\n== Verify mode: validate() + CSR cross-check (ULP tolerance) on every format ==\n");
    println!("(corpus scale {scale}; padded formats are skipped where padding would explode)\n");

    // Padded formats (ELL, DIA) materialise nrows*width / ndiags*nrows
    // slots; scattered matrices would blow this up to gigabytes.
    const PAD_SLOT_CAP: usize = 1 << 24;

    let (mut pass, mut skip, mut fail) = (0usize, 0usize, 0usize);
    for entry in &corpus {
        let csr: Csr = entry.build().to_csr();
        let x = spmv_bench::measured::random_x::<f64>(csr.ncols(), entry.id as u64);
        // Small matrices get the full row-by-row cross-check; large ones a
        // deterministic 256-row sample (still every format, every matrix).
        let opts = CheckOptions {
            sample_rows: if csr.nrows() <= 4096 { 0 } else { 256 },
            ..CheckOptions::default()
        };

        let mut failures: Vec<String> = Vec::new();
        let mut skips: Vec<&str> = Vec::new();
        let mut checked_count = 0usize;
        let check =
            |name: &str, m: &dyn SpMv<f64>, failures: &mut Vec<String>, count: &mut usize| {
                *count += 1;
                if let Err(e) = m.validate() {
                    failures.push(format!("{name}: validate(): {e}"));
                    return;
                }
                let wrapped = match CheckedSpMv::with_options(m, &csr, opts) {
                    Ok(w) => w,
                    Err(e) => {
                        failures.push(format!("{name}: {e}"));
                        return;
                    }
                };
                let mut y = vec![0.0f64; csr.nrows()];
                if let Err(e) = wrapped.spmv_verified(&x, &mut y) {
                    failures.push(format!("{name}: {e}"));
                }
            };

        // The baseline itself only gets the structural check — it *is* the
        // cross-check reference.
        if let Err(e) = csr.validate() {
            failures.push(format!("CSR: validate(): {e}"));
        }

        check(
            "CSR-DU",
            &CsrDu::from_csr(&csr, &DuOptions::default()),
            &mut failures,
            &mut checked_count,
        );
        check(
            "CSR-DU/seq",
            &CsrDu::from_csr(&csr, &DuOptions::with_seq()),
            &mut failures,
            &mut checked_count,
        );
        check("CSR-VI", &CsrVi::from_csr(&csr), &mut failures, &mut checked_count);
        check(
            "CSR-DU-VI",
            &CsrDuVi::from_csr(&csr, &DuOptions::default()),
            &mut failures,
            &mut checked_count,
        );
        check(
            "DCSR",
            &Dcsr::from_csr(&csr, &Default::default()),
            &mut failures,
            &mut checked_count,
        );

        match Csc::from_csr(&csr) {
            Ok(csc) => check("CSC", &csc, &mut failures, &mut checked_count),
            Err(e) => failures.push(format!("CSC: build: {e}")),
        }
        match Jad::from_csr(&csr) {
            Ok(jad) => check("JAD", &jad, &mut failures, &mut checked_count),
            Err(e) => failures.push(format!("JAD: build: {e}")),
        }
        match Bcsr::from_csr(&csr, 2, 2) {
            Ok(b) => check("BCSR", &b, &mut failures, &mut checked_count),
            Err(e) => failures.push(format!("BCSR: build: {e}")),
        }
        match Hyb::from_csr(&csr, 0.66) {
            Ok(h) => check("HYB", &h, &mut failures, &mut checked_count),
            Err(e) => failures.push(format!("HYB: build: {e}")),
        }
        // Symmetric storage only applies to symmetric matrices; a build
        // rejection is the expected outcome elsewhere, not a failure.
        if let Ok(s) = SymCsr::from_csr(&csr) {
            check("SYM-CSR", &s, &mut failures, &mut checked_count);
        } else {
            skips.push("SYM-CSR");
        }

        let ell_slots = csr.nrows() * (0..csr.nrows()).map(|r| csr.row_nnz(r)).max().unwrap_or(0);
        if ell_slots <= PAD_SLOT_CAP {
            match Ell::from_csr(&csr) {
                Ok(e) => check("ELL", &e, &mut failures, &mut checked_count),
                Err(e) => failures.push(format!("ELL: build: {e}")),
            }
        } else {
            skips.push("ELL");
        }
        let ndiags = {
            let mut s = std::collections::BTreeSet::new();
            for (r, c, _) in csr.iter() {
                s.insert(c as isize - r as isize);
            }
            s.len()
        };
        if ndiags * csr.nrows() <= PAD_SLOT_CAP {
            check("DIA", &Dia::from_csr(&csr), &mut failures, &mut checked_count);
        } else {
            skips.push("DIA");
        }

        let verdict = if failures.is_empty() { "ok" } else { "FAIL" };
        println!(
            "  id {:>3} {:<12} nnz {:>9}  {:>2} formats {verdict}{}",
            entry.id,
            entry.name,
            csr.nnz(),
            checked_count,
            if skips.is_empty() {
                String::new()
            } else {
                format!("  (skipped: {})", skips.join(", "))
            }
        );
        for f in &failures {
            println!("       {f}");
        }
        pass += checked_count - failures.len().min(checked_count);
        skip += skips.len();
        fail += failures.len();
    }

    println!("\nverify: {pass} format instances ok, {skip} skipped, {fail} failed");
    fail == 0
}

/// Graph mode: run the SpMSpV frontier drivers (BFS levels, convergence-
/// masked PageRank) and the density-crossover sweep over the power-law
/// corpus, checking BFS/PageRank bit-identity across thread counts and
/// kernel paths, and emit a `BENCH.json` whose `spmspv` section carries
/// the evidence.
fn graph_cmd(args: &Args) {
    use spmv_bench::graph::{collect_graph, GraphOptions};
    use spmv_bench::metrics::validate_bench_text;

    let opts = GraphOptions {
        scale: args.scale.min(0.25), // keep graph mode quick
        iters: args.iters.unwrap_or(GraphOptions::default().iters),
        ..GraphOptions::default()
    };
    println!(
        "\n== Graph mode: SpMSpV drivers over the power-law corpus, scale {}, {} \
         iterations/density, threads {:?} ==\n",
        opts.scale, opts.iters, opts.threads
    );
    let file = collect_graph(&opts).expect("graph collection (includes bit-identity checks)");
    let summary = file.spmspv.as_ref().expect("graph artifact carries an spmspv section");
    println!(
        "{:<12} {:>8} {:>10} {:>10} | {:>6} {:>7} | {:>5} {:>6} {:>9} {:>7}",
        "matrix",
        "nrows",
        "nnz",
        "crossover",
        "bfs-lv",
        "reached",
        "pr-it",
        "active",
        "residual",
        "paths"
    );
    for m in &summary.matrices {
        let mut dense = 0usize;
        let mut sparse = 0usize;
        for p in &m.pagerank_paths {
            if p == "dense" {
                dense += 1;
            } else {
                sparse += 1;
            }
        }
        println!(
            "{:<12} {:>8} {:>10} {:>10.4} | {:>6} {:>7} | {:>5} {:>6} {:>9.2e} {:>3}d/{}s",
            m.matrix,
            m.nrows,
            m.nnz,
            m.crossover_density,
            m.bfs_levels,
            m.bfs_reached,
            m.pagerank_iterations,
            m.pagerank_final_active,
            m.pagerank_residual,
            dense,
            sparse,
        );
    }
    println!(
        "\nbit-identity: BFS levels and PageRank ranks identical across threads {:?} and \
         csc-bucket/masked-csr/dense paths on all {} matrices",
        opts.threads,
        summary.matrices.len()
    );
    let text = {
        let mut t = serde_json::to_string_pretty(&file).expect("serialize BENCH.json");
        t.push('\n');
        t
    };
    validate_bench_text(&text).expect("freshly emitted BENCH.json must satisfy its own schema");
    let dir = args.out.clone().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).expect("create output dir");
    let path = dir.join("BENCH.json");
    std::fs::write(&path, text).expect("write BENCH.json");
    println!(
        "wrote {} ({} graph matrices, schema v{})",
        path.display(),
        summary.matrices.len(),
        file.schema_version
    );
}

/// Plan mode: run every M0 corpus matrix through the adaptive planner,
/// measure (cold) or replay (warm) the chosen cell, and emit a
/// `BENCH.json` plus the persisted plan cache. A second run against the
/// same `--out` is fully warm: every decision is a cache hit, nothing is
/// re-encoded, and the cold run's measured medians are replayed — the
/// closing `plan-cache:` line is what CI's plan-smoke gate greps.
fn plan_cmd(args: &Args) {
    use spmv_bench::metrics::validate_bench_text;
    use spmv_bench::planning::{degenerate_probes, run_planned, PlanRunOptions, PLAN_CACHE_FILE};
    use spmv_memsim::{Planner, PlannerConfig};

    let opts = PlanRunOptions {
        scale: args.scale.min(0.25), // keep plan mode quick
        iters: args.iters.unwrap_or(PlanRunOptions::default().iters),
        ..PlanRunOptions::default()
    };
    let dir = args.out.clone().unwrap_or_else(|| PathBuf::from("."));
    let cache_path = dir.join(PLAN_CACHE_FILE);

    let planner = Planner::new(PlannerConfig::default());
    if cache_path.exists() {
        match planner.load(&cache_path) {
            Ok(n) => println!("loaded {n} cached plans from {}", cache_path.display()),
            Err(e) => {
                eprintln!("plan: cache {} is unreadable: {e}", cache_path.display());
                std::process::exit(1);
            }
        }
    }

    println!(
        "\n== Plan mode: planner-chosen cell per matrix, corpus scale {}, {} iterations ==\n",
        opts.scale, opts.iters
    );
    println!("degenerate probes (throwaway planner; never cached):");
    match degenerate_probes(&planner) {
        Ok(lines) => {
            for line in lines {
                println!("  {line}");
            }
        }
        Err(e) => {
            eprintln!("plan: degenerate probe failed: {e}");
            std::process::exit(1);
        }
    }

    println!(
        "\n{:<12} {:<9} {:>3} {:>6} {:>5} | {:>12} {:>12} {:>7}",
        "matrix", "format", "thr", "chunks", "cache", "predicted", "measured", "ratio"
    );
    let result = run_planned(&planner, &opts, |outcome, record| {
        let predicted = outcome.plan.predicted_time_s;
        let measured = record.stats.median_s;
        let ratio = if predicted > 0.0 { measured / predicted } else { f64::NAN };
        println!(
            "{:<12} {:<9} {:>3} {:>6} {:>5} | {:>9.1} us {:>9.1} us {:>7.2}",
            record.matrix,
            record.format,
            record.threads,
            outcome.plan.chunks,
            if outcome.plan.cache_hit { "hit" } else { "miss" },
            predicted * 1e6,
            measured * 1e6,
            ratio,
        );
    });
    let (file, outcomes) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("plan: {e}");
            std::process::exit(1);
        }
    };

    let text = {
        let mut t = serde_json::to_string_pretty(&file).expect("serialize BENCH.json");
        t.push('\n');
        t
    };
    validate_bench_text(&text).expect("freshly emitted BENCH.json must satisfy its own schema");
    std::fs::create_dir_all(&dir).expect("create output dir");
    let path = dir.join("BENCH.json");
    std::fs::write(&path, text).expect("write BENCH.json");
    planner.save(&cache_path).expect("persist plan cache");

    let replayed = outcomes.iter().filter(|o| o.replayed).count();
    let s = planner.stats();
    println!(
        "\nwrote {} ({} planned records, {} replayed from cache, schema v{})",
        path.display(),
        file.records.len(),
        replayed,
        file.schema_version,
    );
    println!("wrote {}", cache_path.display());
    // Stable machine-readable summary — CI's plan-smoke gate greps this.
    println!(
        "plan-cache: hits={} misses={} encodes={} shape_rejects={} entries={}",
        s.hits,
        s.misses,
        s.encodes,
        s.shape_rejects,
        planner.entries(),
    );
}

/// Check-bench mode: validate an existing BENCH.json (path from the
/// positional argument, else `--out`/`.`) against the schema. Returns
/// `false` on any violation (the process exits non-zero) — the gate
/// behind CI's plan, graph, service and shard-chaos smoke runs.
fn check_bench(args: &Args) -> bool {
    use spmv_bench::metrics::validate_bench_text;
    let path = match &args.arg {
        Some(p) => PathBuf::from(p),
        None => args.out.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH.json"),
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check-bench: cannot read {}: {e}", path.display());
            return false;
        }
    };
    match validate_bench_text(&text) {
        Ok(()) => {
            println!("check-bench: {} is schema-valid", path.display());
            true
        }
        Err(e) => {
            eprintln!("check-bench: {} FAILED: {e}", path.display());
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, CliError> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_flags_parse() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.command, "all");
        assert!(a.iters.is_none() && a.out.is_none());
        let a = parse(&["--scale", "0.1", "--iters", "8", "graph"]).unwrap();
        assert_eq!(a.scale, 0.1);
        assert_eq!(a.iters, Some(8));
        assert_eq!(a.command, "graph");
    }

    #[test]
    fn plan_command_parses_with_scale_out_and_iters() {
        let a = parse(&["plan"]).unwrap();
        assert_eq!(a.command, "plan");
        let a = parse(&["--scale", "0.002", "--out", "target/plan-smoke", "--iters", "2", "plan"])
            .unwrap();
        assert_eq!(a.command, "plan");
        assert_eq!(a.scale, 0.002);
        assert_eq!(a.iters, Some(2));
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("target/plan-smoke")));
    }

    #[test]
    fn stray_arguments_are_typed_errors() {
        let err = parse(&["check-bench", "x", "y"]).unwrap_err();
        assert!(matches!(err, CliError::Unexpected(_)), "{err}");
        let err = parse(&["--iters", "0", "plan"]).unwrap_err();
        assert!(matches!(err, CliError::Invalid { flag: "--iters", .. }), "{err}");
    }
}
