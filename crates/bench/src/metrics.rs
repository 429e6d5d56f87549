//! The metrics model: joining measured time to the working-set model,
//! and the `BENCH.json` artifact.
//!
//! The paper's whole argument is that SpMV is *bandwidth*-bound, so a
//! measured time only becomes interpretable once it is divided into the
//! bytes the kernel streamed ([`spmv_core::stats::effective_bandwidth`]).
//! Each [`BenchRecord`] therefore carries three derived figures next to
//! its raw [`TimingStats`]:
//!
//! * **effective bandwidth** — the format's own matrix bytes over the
//!   median iteration time: how fast the memory system actually moved
//!   this format's data;
//! * **compression-adjusted bandwidth** — the *CSR baseline's* bytes over
//!   the same time: the rate an uncompressed kernel would have needed to
//!   match it. When this exceeds the machine's sustained bandwidth, the
//!   compressed format is doing something CSR physically cannot — the
//!   paper's Figs. 7–8 in one number;
//! * **traffic per nnz** — the format's matrix bytes per non-zero, the
//!   §II-B quantity compression reduces.
//!
//! Records come from `reproduce plan` ([`crate::planning::run_planned`]),
//! one per corpus matrix at the planner's chosen cell; `loadgen` fills
//! the `service` section and `reproduce graph` the `spmspv` section.
//! [`validate_bench_text`] re-parses and checks any of these artifacts
//! (`reproduce check-bench`, run by the CI smoke gates). Kernel
//! performance itself is measured by perfbench, not here.

use crate::jsonv::Json;
use crate::measured::TimingStats;
use crate::roofline;
use serde::Serialize;

/// Version stamped into every `BENCH.json`; bump on any breaking change
/// to the record layout (consumers must check it before reading fields).
/// Version 2 added the SpMM dimension: every record carries the panel
/// width `k` (1 = plain SpMV) and the per-vector amortized bandwidth.
/// Version 3 added the roofline layer: the machine's measured stream
/// bandwidth (`machine.machine_bandwidth_gbs`) plus per-record
/// `kernel_isa` and `roofline_fraction`.
/// Version 4 added the serving layer: `p99_s` in every
/// [`TimingStats`] block and a top-level `service` section (null for
/// kernel benches) holding the `loadgen` overload summary — offered
/// load, admitted/shed counts, completed-request latency percentiles,
/// and the batch-size histogram. `records` may be empty only when
/// `service` is present.
/// Version 5 added the sharded-dispatch layer to the `service` section:
/// `shard_kills` (supervision drills the run performed), a non-empty
/// `shards` array mirroring the global counters per dispatcher shard
/// (the per-shard sums must reproduce the globals exactly) with
/// `requeued`/`respawns`/`degraded` supervision outcomes, and a
/// `tenant_waits` array with per-tenant admission-wait percentiles (the
/// DRR fairness evidence).
/// Version 6 added the planner layer: every record carries `planned`
/// (false for the classic bench matrix) plus a nullable `planner` block
/// with the decision that produced a planned record (chosen format,
/// threads, chunks, predicted cost, and whether the plan came from the
/// cache), and the top level carries a nullable `plan_cache` section
/// with the planner's hit/miss/encode counters for the run.
/// Version 7 added the graph/SpMSpV layer: a top-level nullable `spmspv`
/// section (`reproduce graph` artifacts only) with one record per graph
/// matrix — the input-density sweep (bucket-SpMSpV vs dense timings per
/// point), the measured SpMSpV-vs-dense crossover density (required
/// finite and positive), BFS and convergence-masked-PageRank
/// per-iteration timings, and the kernel path the crossover switch chose
/// each PageRank iteration. `records` may now also be empty when
/// `spmspv` is present.
/// Version 8 dropped what the retired exhaustive `bench` sweep alone
/// wrote: the per-record `telemetry` and `planned` fields (every record
/// is planned, so `planner` is mandatory) and `service.retries`.
/// Version 9 dropped the per-record `k` and `per_vector_bandwidth_gbs`:
/// every record times SpMV, so they always read 1 and the effective
/// bandwidth.
pub const BENCH_SCHEMA_VERSION: u64 = 9;

/// The format keys a record (and its planner block) may carry.
pub const BENCH_FORMATS: [&str; 4] = ["csr", "csr-du", "csr-vi", "csr-duvi"];

/// Where a `BENCH.json` was produced.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MachineInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Hardware threads the host advertises (0 if undetectable).
    pub available_threads: usize,
    /// Sustained memory bandwidth in GB/s measured by the stream-triad
    /// micro-benchmark ([`roofline::measure_stream_bandwidth`]) — the
    /// denominator of every record's `roofline_fraction`.
    pub machine_bandwidth_gbs: f64,
}

impl MachineInfo {
    /// Describes the current host *without* measuring bandwidth (the
    /// field stays 0.0). Cheap; use [`MachineInfo::measure`] for the
    /// artifact-grade version.
    pub fn detect() -> MachineInfo {
        MachineInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            available_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
            machine_bandwidth_gbs: 0.0,
        }
    }

    /// [`MachineInfo::detect`] plus the stream-bandwidth measurement
    /// (hundreds of milliseconds of deliberate memory traffic).
    pub fn measure() -> MachineInfo {
        MachineInfo {
            machine_bandwidth_gbs: roofline::measure_stream_bandwidth(),
            ..Self::detect()
        }
    }
}

/// Per-dispatcher-shard mirror of the service counters plus the
/// supervision outcomes for that shard (schema v5 `service.shards[i]`).
/// The shard sums of the seven mirrored counters must equal the globals
/// exactly — `validate_bench_text` rejects the artifact otherwise.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardSummary {
    /// Shard index (position in the `shards` array).
    pub shard: usize,
    /// Requests admission-routed to this shard.
    pub submitted: u64,
    /// Requests that entered this shard's queues.
    pub admitted: u64,
    /// Requests shed here with `ServiceError::Overloaded`.
    pub shed_overload: u64,
    /// Requests shed here with `ServiceError::TenantQuotaExceeded`.
    pub shed_quota: u64,
    /// Admitted requests that expired before completing.
    pub deadline_expired: u64,
    /// Admitted requests that returned a result.
    pub completed: u64,
    /// Admitted requests that terminated with a typed failure.
    pub failed: u64,
    /// Unanswered requests the supervisor stole from a dead or stalled
    /// incarnation and put back at the head of the queue.
    pub requeued: u64,
    /// Dispatcher incarnations the supervisor started after the first.
    pub respawns: u64,
    /// Whether the shard breaker was tripped to degraded serial drain
    /// when the snapshot was taken.
    pub degraded: bool,
}

/// Per-tenant admission-wait summary (schema v5 `service.tenant_waits`):
/// the measured evidence that deficit-round-robin keeps a flooding
/// tenant from starving a polite one.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantWait {
    /// Tenant name as submitted in the traffic mix.
    pub tenant: String,
    /// Completed requests the percentiles are computed over.
    pub completed: u64,
    /// Median queue wait (admission to execution start), milliseconds.
    pub p50_wait_ms: f64,
    /// 99th-percentile queue wait, milliseconds.
    pub p99_wait_ms: f64,
}

/// The `loadgen` overload-run summary (the `service` section):
/// what the serving layer did under a configured offered load, so
/// graceful degradation is a measured artifact rather than an assertion.
/// Count invariants (checked by [`validate_bench_text`]): every
/// submitted request is admitted or shed, every admitted request
/// terminates as completed, deadline-expired, or failed, and (v5) the
/// per-shard mirrors sum to the globals exactly.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceSummary {
    /// Offered load the generator drove, in requests per second.
    pub offered_rps: f64,
    /// Wall-clock seconds of the traffic window.
    pub duration_s: f64,
    /// Distinct tenants in the traffic mix.
    pub tenants: usize,
    /// Per-request deadline budget the run was configured with (ms).
    pub deadline_ms: f64,
    /// Requests the generator submitted.
    pub submitted: u64,
    /// Requests that passed admission control into the queue.
    pub admitted: u64,
    /// Requests shed with `ServiceError::Overloaded` (queue full).
    pub shed_overload: u64,
    /// Requests shed with `ServiceError::TenantQuotaExceeded`.
    pub shed_quota: u64,
    /// Admitted requests that expired (`DeadlineExceeded`) before or
    /// while waiting for execution.
    pub deadline_expired: u64,
    /// Admitted requests that returned a result.
    pub completed: u64,
    /// Admitted requests answered `Evicting`: their matrix was torn
    /// down while they waited. (Requests still queued when a shutdown's
    /// drain budget runs out count in `deadline_expired`.)
    pub failed: u64,
    /// Times a per-matrix circuit breaker tripped to serial execution.
    pub breaker_trips: u64,
    /// End-to-end latency summary over *completed* requests (seconds,
    /// submit-to-reply). `p99_s` against `deadline_ms` is the headline
    /// graceful-degradation figure.
    pub latency: TimingStats,
    /// Batch-size histogram: `batch_sizes[i]` panels executed at width
    /// `k = i + 1`. Coalescing under load shows up as mass above k = 1.
    pub batch_sizes: Vec<u64>,
    /// Dispatcher shards the run killed on purpose (`--kill-shard`
    /// supervision drills; 0 for an undisturbed run).
    pub shard_kills: u64,
    /// Per-shard counter mirrors and supervision outcomes, one entry
    /// per dispatcher shard (schema v5; never empty).
    pub shards: Vec<ShardSummary>,
    /// Per-tenant admission-wait percentiles over completed requests
    /// (schema v5; one entry per tenant seen completing).
    pub tenant_waits: Vec<TenantWait>,
}

/// The planner decision behind a record (schema v6 `planner`; mandatory
/// since v8).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlannerDecisionRecord {
    /// Chosen format, as a [`BENCH_FORMATS`] key.
    pub format: String,
    /// Chosen thread count.
    pub threads: usize,
    /// Chosen partition granularity (nnz-balanced row chunks).
    pub chunks: usize,
    /// Model-predicted seconds per iteration for the chosen candidate.
    pub predicted_time_s: f64,
    /// Model-predicted MFLOP/s for the chosen candidate.
    pub predicted_mflops: f64,
    /// Whether the model calls the chosen candidate memory-bound.
    pub memory_bound: bool,
    /// Whether the decision was served from the plan cache (no
    /// profiling, candidate encodes, or prediction ran).
    pub cache_hit: bool,
}

/// Plan-cache counters for a planner run (schema v6 top-level
/// `plan_cache`; null for artifacts that never invoked the planner).
/// A fully warm run shows `misses == 0 && encodes == 0`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlanCacheSummary {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required full analysis.
    pub misses: u64,
    /// Candidate format encodes performed during analysis.
    pub encodes: u64,
    /// Entries discarded on a CRC hit with a shape mismatch.
    pub shape_rejects: u64,
    /// Cached plans at emission time.
    pub entries: u64,
}

/// One point of the SpMSpV-vs-dense input-density sweep (schema v7).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpmspvSweepPoint {
    /// Requested frontier density (fraction of active columns, > 0).
    pub density: f64,
    /// Actual nonzeros in the generated frontier.
    pub frontier_nnz: usize,
    /// Median seconds per bucket-SpMSpV call at this density.
    pub spmspv_s: f64,
    /// Median seconds per dense CSR SpMV call (the comparator).
    pub dense_s: f64,
    /// The path the measured crossover would choose at this density
    /// (`"csc-bucket"` or `"dense"`).
    pub path: String,
}

/// Per-matrix graph/SpMSpV evidence (schema v7).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GraphMatrixRecord {
    /// Corpus matrix name.
    pub matrix: String,
    /// Corpus matrix id.
    pub matrix_id: u64,
    /// Matrix rows (== columns; graph matrices are square).
    pub nrows: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Thread counts the BFS/PageRank bit-identity checks ran across.
    pub threads: Vec<usize>,
    /// Measured SpMSpV-vs-dense crossover density: SpMSpV won every
    /// sweep point strictly below it. Always finite and positive
    /// (`check-bench` enforces this).
    pub crossover_density: f64,
    /// The density sweep behind `crossover_density`.
    pub sweep: Vec<SpmspvSweepPoint>,
    /// BFS source vertex.
    pub bfs_source: usize,
    /// Distinct BFS levels discovered (source level included).
    pub bfs_levels: usize,
    /// Vertices reached (source included).
    pub bfs_reached: usize,
    /// Seconds per BFS frontier expansion, in iteration order.
    pub bfs_iter_s: Vec<f64>,
    /// Convergence-masked PageRank iterations executed.
    pub pagerank_iterations: usize,
    /// Seconds per PageRank iteration.
    pub pagerank_iter_s: Vec<f64>,
    /// Kernel path chosen per PageRank iteration by the density
    /// crossover switch (`"csc-bucket"` / `"masked-csr"` / `"dense"`).
    pub pagerank_paths: Vec<String>,
    /// Active (not yet converged) vertices after the last iteration.
    pub pagerank_final_active: usize,
    /// Final deterministic residual (sum of |delta|).
    pub pagerank_residual: f64,
}

/// The top-level `spmspv` section of a graph artifact (schema v7; null
/// for `plan` and `loadgen` artifacts).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GraphSummary {
    /// One record per measured graph matrix.
    pub matrices: Vec<GraphMatrixRecord>,
}

/// One planned-and-measured corpus matrix: the (format, thread count)
/// cell the planner chose, its SpMV timed.
#[derive(Debug, Clone, Serialize)]
pub struct BenchRecord {
    /// Corpus matrix name.
    pub matrix: String,
    /// Corpus matrix id.
    pub matrix_id: u64,
    /// Format key (one of [`BENCH_FORMATS`]).
    pub format: String,
    /// Threads used (1 = the serial kernel, no pool).
    pub threads: usize,
    /// Matrix rows.
    pub nrows: usize,
    /// Matrix columns.
    pub ncols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// This format's matrix bytes (structure + values, vectors excluded).
    pub matrix_bytes: usize,
    /// The CSR baseline's matrix bytes for the same matrix.
    pub csr_matrix_bytes: usize,
    /// `matrix_bytes / nnz` — the §II-B per-nnz streaming cost.
    pub traffic_per_nnz: f64,
    /// Adaptive warm-up iterations that ran before timing.
    pub warmup_iterations: usize,
    /// Per-iteration timing summary.
    pub stats: TimingStats,
    /// MFLOP/s at the median iteration time.
    pub mflops: f64,
    /// `matrix_bytes / median_s`, in GB/s.
    pub effective_bandwidth_gbs: f64,
    /// `csr_matrix_bytes / median_s`, in GB/s — the bandwidth an
    /// uncompressed CSR kernel would need to match this time.
    pub compression_adjusted_gbs: f64,
    /// Kernel instruction set this record was measured with (`"scalar"`
    /// or `"avx2"`), resolved once at plan time.
    pub kernel_isa: String,
    /// `effective_bandwidth_gbs / machine_bandwidth_gbs` — how close this
    /// cell runs to the measured stream ceiling. May exceed 1.0 for
    /// cache-resident working sets (the ceiling is a *memory* figure).
    pub roofline_fraction: f64,
    /// The planner decision behind this record.
    pub planner: PlannerDecisionRecord,
}

/// A complete `BENCH.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BenchFile {
    /// [`BENCH_SCHEMA_VERSION`] at emission time.
    pub schema_version: u64,
    /// Producing host.
    pub machine: MachineInfo,
    /// Corpus scale factor the matrices were built at.
    pub scale: f64,
    /// Timed iterations per record.
    pub iterations: usize,
    /// x-vector seed.
    pub seed: u64,
    /// One record per planned corpus matrix. May be empty only when
    /// `service` or `spmspv` is present.
    pub records: Vec<BenchRecord>,
    /// Serving-layer overload summary (`loadgen` artifacts only; null
    /// otherwise).
    pub service: Option<ServiceSummary>,
    /// Plan-cache counters (`reproduce plan` artifacts only; null when
    /// the run never invoked the planner). Schema v6.
    pub plan_cache: Option<PlanCacheSummary>,
    /// Graph/SpMSpV section (`reproduce graph` artifacts only; null
    /// otherwise). Schema v7.
    pub spmspv: Option<GraphSummary>,
}

// ---------------------------------------------------------------------
// Schema validation (the reading half of the BENCH.json contract)
// ---------------------------------------------------------------------

fn require_num(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    let v = obj
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{ctx}: missing or non-numeric field {key:?}"))?;
    // The jsonv parser already refuses non-finite literals; this guards
    // against any future reader that doesn't.
    if !v.is_finite() {
        return Err(format!("{ctx}: field {key:?} is non-finite ({v})"));
    }
    Ok(v)
}

fn require_str(obj: &Json, key: &str, ctx: &str) -> Result<(), String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(|_| ())
        .ok_or_else(|| format!("{ctx}: missing or non-string field {key:?}"))
}

/// Checks a serialized [`TimingStats`] block: every promised key present
/// and numeric (shared by per-record `stats` and the service `latency`).
fn validate_stats(stats: &Json, ctx: &str) -> Result<(), String> {
    for key in ["samples", "min_s", "median_s", "mean_s", "mad_s", "p95_s", "p99_s", "cv"] {
        require_num(stats, key, ctx)?;
    }
    Ok(())
}

/// Checks the `service` section (the `loadgen` summary): all counters
/// present, the admission/termination count invariants hold globally
/// and within every shard mirror, the shard sums reproduce the globals,
/// the latency block is a full [`TimingStats`], the batch histogram is
/// a non-empty numeric array, and the per-tenant wait entries are well
/// formed.
fn validate_service(service: &Json) -> Result<(), String> {
    let ctx = "service";
    for key in ["offered_rps", "duration_s", "deadline_ms"] {
        let v = require_num(service, key, ctx)?;
        if v <= 0.0 {
            return Err(format!("{ctx}: {key} {v} must be > 0"));
        }
    }
    let tenants = require_num(service, "tenants", ctx)?;
    if tenants < 1.0 {
        return Err(format!("{ctx}: tenants {tenants} must be >= 1"));
    }
    let count = |key: &str| -> Result<f64, String> {
        let v = require_num(service, key, ctx)?;
        if v < 0.0 {
            return Err(format!("{ctx}: {key} {v} must be >= 0"));
        }
        Ok(v)
    };
    let submitted = count("submitted")?;
    let admitted = count("admitted")?;
    let shed_overload = count("shed_overload")?;
    let shed_quota = count("shed_quota")?;
    let deadline_expired = count("deadline_expired")?;
    let completed = count("completed")?;
    let failed = count("failed")?;
    count("breaker_trips")?;
    if admitted + shed_overload + shed_quota != submitted {
        return Err(format!(
            "{ctx}: admitted {admitted} + shed {} != submitted {submitted}",
            shed_overload + shed_quota
        ));
    }
    if completed + deadline_expired + failed != admitted {
        return Err(format!(
            "{ctx}: completed {completed} + expired {deadline_expired} + failed {failed} \
             != admitted {admitted} (lost responses?)"
        ));
    }
    let latency = service.get("latency").ok_or_else(|| format!("{ctx}: missing \"latency\""))?;
    validate_stats(latency, &format!("{ctx}.latency"))?;
    let batches = service
        .get("batch_sizes")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: missing or non-array \"batch_sizes\""))?;
    if batches.is_empty() {
        return Err(format!("{ctx}: batch_sizes is empty"));
    }
    if batches.iter().any(|v| v.as_f64().is_none()) {
        return Err(format!("{ctx}: batch_sizes has non-numeric entries"));
    }
    count("shard_kills")?;
    // v5 shard mirrors: every per-shard counter block is internally
    // consistent and the shard sums reproduce the globals exactly.
    let shards = service
        .get("shards")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: missing or non-array \"shards\""))?;
    if shards.is_empty() {
        return Err(format!("{ctx}: shards is empty (a service has at least one shard)"));
    }
    let mut sums = [0.0f64; 7];
    for (i, shard) in shards.iter().enumerate() {
        let sctx = format!("{ctx}.shards[{i}]");
        let idx = require_num(shard, "shard", &sctx)?;
        if idx != i as f64 {
            return Err(format!("{sctx}: shard index {idx} != position {i}"));
        }
        let mut c = [0.0f64; 7];
        for (slot, key) in [
            "submitted",
            "admitted",
            "shed_overload",
            "shed_quota",
            "deadline_expired",
            "completed",
            "failed",
        ]
        .iter()
        .enumerate()
        {
            let v = require_num(shard, key, &sctx)?;
            if v < 0.0 {
                return Err(format!("{sctx}: {key} {v} must be >= 0"));
            }
            c[slot] = v;
            sums[slot] += v;
        }
        if c[1] + c[2] + c[3] != c[0] {
            return Err(format!(
                "{sctx}: admitted {} + shed {} != submitted {} (admission leak)",
                c[1],
                c[2] + c[3],
                c[0]
            ));
        }
        if c[5] + c[4] + c[6] != c[1] {
            return Err(format!(
                "{sctx}: completed {} + expired {} + failed {} != admitted {} (lost responses?)",
                c[5], c[4], c[6], c[1]
            ));
        }
        require_num(shard, "requeued", &sctx)?;
        require_num(shard, "respawns", &sctx)?;
        shard
            .get("degraded")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("{sctx}: missing or non-boolean field \"degraded\""))?;
    }
    for (slot, (key, global)) in [
        ("submitted", submitted),
        ("admitted", admitted),
        ("shed_overload", shed_overload),
        ("shed_quota", shed_quota),
        ("deadline_expired", deadline_expired),
        ("completed", completed),
        ("failed", failed),
    ]
    .iter()
    .enumerate()
    {
        if sums[slot] != *global {
            return Err(format!(
                "{ctx}: shard {key} sum {} != global {global} (shard mirror drift)",
                sums[slot]
            ));
        }
    }
    let waits = service
        .get("tenant_waits")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: missing or non-array \"tenant_waits\""))?;
    for (i, w) in waits.iter().enumerate() {
        let wctx = format!("{ctx}.tenant_waits[{i}]");
        require_str(w, "tenant", &wctx)?;
        for key in ["completed", "p50_wait_ms", "p99_wait_ms"] {
            let v = require_num(w, key, &wctx)?;
            if v < 0.0 {
                return Err(format!("{wctx}: {key} {v} must be >= 0"));
            }
        }
    }
    Ok(())
}

/// The path names the v7 graph records may carry.
const SPMSPV_PATHS: [&str; 3] = ["csc-bucket", "masked-csr", "dense"];

/// Checks the v7 `spmspv` section: a non-empty per-matrix record array,
/// each with a finite positive crossover density, a well-formed density
/// sweep, and BFS/PageRank iteration evidence whose array lengths agree
/// with the declared iteration counts.
fn validate_graph(graph: &Json) -> Result<(), String> {
    let matrices = graph
        .get("matrices")
        .and_then(Json::as_arr)
        .ok_or("spmspv: missing or non-array \"matrices\"")?;
    if matrices.is_empty() {
        return Err("spmspv: matrices is empty (nothing was measured)".into());
    }
    for (i, m) in matrices.iter().enumerate() {
        let ctx = format!("spmspv.matrices[{i}]");
        require_str(m, "matrix", &ctx)?;
        for key in ["matrix_id", "nrows", "nnz", "bfs_source"] {
            require_num(m, key, &ctx)?;
        }
        let threads = m
            .get("threads")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{ctx}: missing or non-array \"threads\""))?;
        if threads.is_empty() || threads.iter().any(|t| t.as_f64().is_none_or(|t| t < 1.0)) {
            return Err(format!("{ctx}: threads must be a non-empty array of counts >= 1"));
        }
        // The acceptance criterion: a recorded crossover that is finite
        // (require_num) and strictly positive.
        let crossover = require_num(m, "crossover_density", &ctx)?;
        if crossover <= 0.0 {
            return Err(format!("{ctx}: crossover_density {crossover} must be > 0"));
        }
        let sweep = m
            .get("sweep")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{ctx}: missing or non-array \"sweep\""))?;
        if sweep.is_empty() {
            return Err(format!("{ctx}: sweep is empty"));
        }
        for (j, pt) in sweep.iter().enumerate() {
            let pctx = format!("{ctx}.sweep[{j}]");
            let density = require_num(pt, "density", &pctx)?;
            if density <= 0.0 {
                return Err(format!("{pctx}: density {density} must be > 0"));
            }
            let nnz = require_num(pt, "frontier_nnz", &pctx)?;
            if nnz < 1.0 {
                return Err(format!("{pctx}: frontier_nnz {nnz} must be >= 1"));
            }
            for key in ["spmspv_s", "dense_s"] {
                let v = require_num(pt, key, &pctx)?;
                if v <= 0.0 {
                    return Err(format!("{pctx}: {key} {v} must be > 0"));
                }
            }
            let path = pt
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{pctx}: missing or non-string field \"path\""))?;
            if !SPMSPV_PATHS.contains(&path) {
                return Err(format!("{pctx}: unknown path {path:?}"));
            }
        }
        let levels = require_num(m, "bfs_levels", &ctx)?;
        let reached = require_num(m, "bfs_reached", &ctx)?;
        if levels < 1.0 || reached < 1.0 {
            return Err(format!("{ctx}: BFS must reach at least the source"));
        }
        let bfs_iters = m
            .get("bfs_iter_s")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{ctx}: missing or non-array \"bfs_iter_s\""))?;
        if bfs_iters.is_empty() || bfs_iters.iter().any(|v| v.as_f64().is_none_or(|s| s < 0.0)) {
            return Err(format!("{ctx}: bfs_iter_s must be a non-empty array of seconds >= 0"));
        }
        let pr_iters = require_num(m, "pagerank_iterations", &ctx)?;
        if pr_iters < 1.0 {
            return Err(format!("{ctx}: pagerank_iterations {pr_iters} must be >= 1"));
        }
        let pr_times = m
            .get("pagerank_iter_s")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{ctx}: missing or non-array \"pagerank_iter_s\""))?;
        let pr_paths = m
            .get("pagerank_paths")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{ctx}: missing or non-array \"pagerank_paths\""))?;
        if pr_times.len() != pr_iters as usize || pr_paths.len() != pr_iters as usize {
            return Err(format!(
                "{ctx}: pagerank_iter_s ({}) and pagerank_paths ({}) must both have \
                 pagerank_iterations ({pr_iters}) entries",
                pr_times.len(),
                pr_paths.len()
            ));
        }
        if pr_times.iter().any(|v| v.as_f64().is_none_or(|s| s < 0.0)) {
            return Err(format!("{ctx}: pagerank_iter_s has negative or non-numeric entries"));
        }
        for (j, p) in pr_paths.iter().enumerate() {
            let path =
                p.as_str().ok_or_else(|| format!("{ctx}: pagerank_paths[{j}] is not a string"))?;
            if !SPMSPV_PATHS.contains(&path) {
                return Err(format!("{ctx}: pagerank_paths[{j}] unknown path {path:?}"));
            }
        }
        require_num(m, "pagerank_final_active", &ctx)?;
        let residual = require_num(m, "pagerank_residual", &ctx)?;
        if residual < 0.0 {
            return Err(format!("{ctx}: pagerank_residual {residual} must be >= 0"));
        }
    }
    Ok(())
}

/// Validates `text` as a current-schema `BENCH.json`: parses the JSON,
/// checks the version stamp, and requires every field the schema promises
/// with the right shape. Used by `reproduce check-bench` (the CI smoke
/// gates), by `plan`, `graph` and `loadgen` before they write an
/// artifact, and by the golden-file tests.
pub fn validate_bench_text(text: &str) -> Result<(), String> {
    let root = Json::parse(text).map_err(|e| format!("BENCH.json does not parse: {e}"))?;
    if !root.is_obj() {
        return Err("top level must be an object".into());
    }
    let version = require_num(&root, "schema_version", "top level")?;
    if version != BENCH_SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {version} unsupported (this build reads {BENCH_SCHEMA_VERSION})"
        ));
    }
    let machine = root.get("machine").ok_or("top level: missing \"machine\"")?;
    require_str(machine, "os", "machine")?;
    require_str(machine, "arch", "machine")?;
    require_num(machine, "available_threads", "machine")?;
    let ceiling = require_num(machine, "machine_bandwidth_gbs", "machine")?;
    if ceiling <= 0.0 {
        return Err(format!("machine: machine_bandwidth_gbs {ceiling} must be > 0"));
    }
    require_num(&root, "scale", "top level")?;
    let iters = require_num(&root, "iterations", "top level")?;
    if iters < 1.0 {
        return Err(format!("iterations {iters} must be >= 1"));
    }
    require_num(&root, "seed", "top level")?;
    let service = match root.get("service") {
        None => return Err("top level: missing \"service\" (null outside loadgen)".into()),
        Some(s) if s.is_null() => None,
        Some(s) => {
            validate_service(s)?;
            Some(s)
        }
    };
    // v6: the plan-cache section is mandatory (null when the run never
    // invoked the planner), and its counters must be non-negative.
    match root.get("plan_cache") {
        None => {
            return Err("top level: missing \"plan_cache\" (null when the planner never ran)".into())
        }
        Some(pc) if pc.is_null() => {}
        Some(pc) => {
            let ctx = "plan_cache";
            for key in ["hits", "misses", "encodes", "shape_rejects", "entries"] {
                let v = require_num(pc, key, ctx)?;
                if v < 0.0 {
                    return Err(format!("{ctx}: {key} {v} must be >= 0"));
                }
            }
        }
    }
    // v7: the graph section is mandatory (null for non-graph artifacts).
    let graph = match root.get("spmspv") {
        None => return Err("top level: missing \"spmspv\" (null for non-graph artifacts)".into()),
        Some(g) if g.is_null() => None,
        Some(g) => {
            validate_graph(g)?;
            Some(g)
        }
    };
    let records = root
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("top level: missing or non-array \"records\"")?;
    if records.is_empty() && service.is_none() && graph.is_none() {
        return Err("records array is empty (nothing was measured)".into());
    }
    for (i, rec) in records.iter().enumerate() {
        let ctx = format!("records[{i}]");
        require_str(rec, "matrix", &ctx)?;
        let fmt = rec
            .get("format")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: missing or non-string field \"format\""))?;
        if !BENCH_FORMATS.contains(&fmt) {
            return Err(format!("{ctx}: unknown format {fmt:?}"));
        }
        let threads = require_num(rec, "threads", &ctx)?;
        if threads < 1.0 {
            return Err(format!("{ctx}: threads {threads} must be >= 1"));
        }
        for key in ["matrix_id", "nrows", "ncols", "nnz", "matrix_bytes", "csr_matrix_bytes"] {
            require_num(rec, key, &ctx)?;
        }
        for key in [
            "traffic_per_nnz",
            "warmup_iterations",
            "mflops",
            "effective_bandwidth_gbs",
            "compression_adjusted_gbs",
        ] {
            require_num(rec, key, &ctx)?;
        }
        let isa = rec
            .get("kernel_isa")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: missing or non-string field \"kernel_isa\""))?;
        if spmv_core::simd::Isa::parse(isa).is_none() {
            return Err(format!("{ctx}: unknown kernel_isa {isa:?}"));
        }
        let roof = require_num(rec, "roofline_fraction", &ctx)?;
        if roof < 0.0 {
            return Err(format!("{ctx}: roofline_fraction {roof} must be >= 0"));
        }
        let stats = rec.get("stats").ok_or_else(|| format!("{ctx}: missing \"stats\""))?;
        validate_stats(stats, &format!("{ctx}.stats"))?;
        let pctx = format!("{ctx}.planner");
        let p = rec
            .get("planner")
            .filter(|p| p.is_obj())
            .ok_or_else(|| format!("{ctx}: missing or non-object \"planner\""))?;
        let pfmt = p
            .get("format")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{pctx}: missing or non-string field \"format\""))?;
        if !BENCH_FORMATS.contains(&pfmt) {
            return Err(format!("{pctx}: unknown format {pfmt:?}"));
        }
        for key in ["threads", "chunks"] {
            let v = require_num(p, key, &pctx)?;
            if v < 1.0 {
                return Err(format!("{pctx}: {key} {v} must be >= 1"));
            }
        }
        for key in ["predicted_time_s", "predicted_mflops"] {
            let v = require_num(p, key, &pctx)?;
            if v < 0.0 {
                return Err(format!("{pctx}: {key} {v} must be >= 0"));
            }
        }
        for key in ["memory_bound", "cache_hit"] {
            p.get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("{pctx}: missing or non-boolean field {key:?}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built `reproduce plan` record with the decision behind it.
    fn planned_record(format: &str, cache_hit: bool) -> BenchRecord {
        BenchRecord {
            matrix: "band_026".into(),
            matrix_id: 26,
            format: format.into(),
            threads: 2,
            nrows: 1000,
            ncols: 1000,
            nnz: 8000,
            matrix_bytes: 70_000,
            csr_matrix_bytes: 100_004,
            traffic_per_nnz: 8.75,
            warmup_iterations: 3,
            stats: TimingStats {
                samples: 8,
                min_s: 1.0e-4,
                median_s: 1.25e-4,
                mean_s: 1.3e-4,
                mad_s: 5.0e-6,
                p95_s: 2.0e-4,
                p99_s: 2.4e-4,
                cv: 0.07,
            },
            mflops: 128.0,
            effective_bandwidth_gbs: 0.56,
            compression_adjusted_gbs: 0.8,
            kernel_isa: "scalar".into(),
            roofline_fraction: 0.056,
            planner: PlannerDecisionRecord {
                format: format.into(),
                threads: 2,
                chunks: 4,
                predicted_time_s: 1.5e-4,
                predicted_mflops: 900.0,
                memory_bound: true,
                cache_hit,
            },
        }
    }

    /// A hand-built `reproduce plan` artifact: two planned records and
    /// the run's cache counters.
    fn planned_file() -> BenchFile {
        BenchFile {
            schema_version: BENCH_SCHEMA_VERSION,
            machine: MachineInfo { machine_bandwidth_gbs: 12.5, ..MachineInfo::detect() },
            scale: 0.002,
            iterations: 2,
            seed: 42,
            records: vec![planned_record("csr-du", false), planned_record("csr-vi", true)],
            service: None,
            plan_cache: Some(PlanCacheSummary {
                hits: 1,
                misses: 1,
                encodes: 3,
                shape_rejects: 0,
                entries: 1,
            }),
            spmspv: None,
        }
    }

    #[test]
    fn validator_rejects_broken_artifacts() {
        let file = planned_file();
        let good = serde_json::to_string_pretty(&file).unwrap();
        validate_bench_text(&good).unwrap();
        assert!(validate_bench_text("not json").is_err());
        assert!(validate_bench_text("{}").is_err());
        let wrong_version = good.replacen(
            &format!("\"schema_version\": {BENCH_SCHEMA_VERSION}"),
            "\"schema_version\": 99",
            1,
        );
        assert_ne!(wrong_version, good, "replacement must hit the version stamp");
        assert!(validate_bench_text(&wrong_version).unwrap_err().contains("schema_version"));
        let no_records = good.replacen("\"records\"", "\"recs\"", 1);
        assert!(validate_bench_text(&no_records).is_err());
        let bad_format = good.replacen("\"csr-du\"", "\"csr-zz\"", 1);
        assert!(validate_bench_text(&bad_format).unwrap_err().contains("csr-zz"));
        // Schema-v3 additions: a bogus ISA name, a negative roofline and
        // a zero machine ceiling must all be rejected.
        let bad_isa = good.replace(
            &format!("\"kernel_isa\": \"{}\"", file.records[0].kernel_isa),
            "\"kernel_isa\": \"mmx\"",
        );
        assert_ne!(bad_isa, good, "replacement must hit the ISA field");
        assert!(validate_bench_text(&bad_isa).unwrap_err().contains("mmx"));
        let neg_roof =
            good.replacen("\"roofline_fraction\": 0.056", "\"roofline_fraction\": -1", 1);
        assert_ne!(neg_roof, good, "replacement must hit the roofline field");
        assert!(validate_bench_text(&neg_roof).unwrap_err().contains("roofline_fraction"));
        let no_ceiling = good.replacen(
            &format!("\"machine_bandwidth_gbs\": {}", file.machine.machine_bandwidth_gbs),
            "\"machine_bandwidth_gbs\": 0.0",
            1,
        );
        assert_ne!(no_ceiling, good, "replacement must hit the ceiling field");
        assert!(validate_bench_text(&no_ceiling).unwrap_err().contains("machine_bandwidth_gbs"));
    }

    fn service_file() -> BenchFile {
        BenchFile {
            schema_version: BENCH_SCHEMA_VERSION,
            machine: MachineInfo { machine_bandwidth_gbs: 10.0, ..MachineInfo::detect() },
            scale: 0.01,
            iterations: 90,
            seed: 7,
            records: Vec::new(),
            service: Some(ServiceSummary {
                offered_rps: 2000.0,
                duration_s: 3.0,
                tenants: 4,
                deadline_ms: 25.0,
                submitted: 6000,
                admitted: 4000,
                shed_overload: 1800,
                shed_quota: 200,
                deadline_expired: 80,
                completed: 3900,
                failed: 20,
                breaker_trips: 1,
                latency: TimingStats {
                    samples: 3900,
                    min_s: 1e-4,
                    median_s: 2e-3,
                    mean_s: 3e-3,
                    mad_s: 1e-3,
                    p95_s: 1.5e-2,
                    p99_s: 2.2e-2,
                    cv: 0.4,
                },
                batch_sizes: vec![500, 200, 0, 400, 0, 0, 0, 150],
                shard_kills: 3,
                shards: vec![
                    ShardSummary {
                        shard: 0,
                        submitted: 3500,
                        admitted: 2400,
                        shed_overload: 1000,
                        shed_quota: 100,
                        deadline_expired: 50,
                        completed: 2340,
                        failed: 10,
                        requeued: 4,
                        respawns: 2,
                        degraded: false,
                    },
                    ShardSummary {
                        shard: 1,
                        submitted: 2500,
                        admitted: 1600,
                        shed_overload: 800,
                        shed_quota: 100,
                        deadline_expired: 30,
                        completed: 1560,
                        failed: 10,
                        requeued: 1,
                        respawns: 1,
                        degraded: true,
                    },
                ],
                tenant_waits: vec![
                    TenantWait {
                        tenant: "tenant-0".into(),
                        completed: 2600,
                        p50_wait_ms: 1.2,
                        p99_wait_ms: 8.5,
                    },
                    TenantWait {
                        tenant: "tenant-1".into(),
                        completed: 1300,
                        p50_wait_ms: 1.4,
                        p99_wait_ms: 9.9,
                    },
                ],
            }),
            plan_cache: None,
            spmspv: None,
        }
    }

    #[test]
    fn service_artifact_validates_and_count_invariants_are_enforced() {
        let good = serde_json::to_string_pretty(&service_file()).unwrap();
        validate_bench_text(&good).unwrap();
        // A lost response breaks completed + expired + failed == admitted.
        let lost = good.replacen("\"completed\": 3900", "\"completed\": 3899", 1);
        assert_ne!(lost, good);
        assert!(validate_bench_text(&lost).unwrap_err().contains("lost responses"));
        // Shed counts must reconcile with submitted.
        let leaked = good.replacen("\"shed_overload\": 1800", "\"shed_overload\": 1799", 1);
        assert!(validate_bench_text(&leaked).unwrap_err().contains("submitted"));
        // The latency block must be a full TimingStats (p99 included).
        let no_p99 = good.replacen("\"p99_s\"", "\"p98_s\"", 1);
        assert!(validate_bench_text(&no_p99).unwrap_err().contains("p99_s"));
        // An empty artifact with neither records nor service says so.
        let mut bare = service_file();
        bare.service = None;
        let text = serde_json::to_string_pretty(&bare).unwrap();
        assert!(validate_bench_text(&text).unwrap_err().contains("empty"));
    }

    #[test]
    fn validator_enforces_the_v5_shard_mirror_contract() {
        let good = serde_json::to_string_pretty(&service_file()).unwrap();
        validate_bench_text(&good).unwrap();
        // A shard whose terminal counts don't add up is caught per shard.
        let lost = good.replacen("\"completed\": 2340", "\"completed\": 2339", 1);
        assert_ne!(lost, good);
        let err = validate_bench_text(&lost).unwrap_err();
        assert!(err.contains("shards[0]") && err.contains("lost responses"), "{err}");
        // A shard mirror that is internally consistent but disagrees
        // with the globals is shard-mirror drift (move one shed between
        // categories in shard 0 only: its admission sum still holds).
        let drift = good
            .replacen("\"shed_overload\": 1000", "\"shed_overload\": 1001", 1)
            .replacen("\"shed_quota\": 100", "\"shed_quota\": 99", 1);
        assert_ne!(drift, good);
        assert!(validate_bench_text(&drift).unwrap_err().contains("shard mirror drift"));
        // Shard entries must sit at their own index.
        let misplaced = good.replacen("\"shard\": 1", "\"shard\": 5", 1);
        assert_ne!(misplaced, good);
        assert!(validate_bench_text(&misplaced).unwrap_err().contains("!= position"));
        // `degraded` must be a real boolean, not a truthy number.
        let truthy = good.replacen("\"degraded\": false", "\"degraded\": 0", 1);
        assert_ne!(truthy, good);
        assert!(validate_bench_text(&truthy).unwrap_err().contains("degraded"));
        // The v5 sections themselves are mandatory.
        for field in ["shard_kills", "shards", "tenant_waits"] {
            let missing = good.replacen(&format!("\"{field}\""), "\"gone\"", 1);
            assert_ne!(missing, good, "{field} must be present in the fixture");
            assert!(validate_bench_text(&missing).unwrap_err().contains(field), "{field}");
        }
        // Tenant-wait entries need a tenant name and numeric percentiles.
        let anon = good.replacen("\"tenant\": \"tenant-0\"", "\"tenant\": 7", 1);
        assert_ne!(anon, good);
        assert!(validate_bench_text(&anon).unwrap_err().contains("tenant_waits[0]"));
    }

    #[test]
    fn validator_enforces_the_v6_planner_contract() {
        let good = serde_json::to_string_pretty(&planned_file()).unwrap();
        validate_bench_text(&good).unwrap();

        // The plan_cache key is mandatory even when null.
        let missing = good.replacen("\"plan_cache\"", "\"plancache\"", 1);
        assert_ne!(missing, good);
        assert!(validate_bench_text(&missing).unwrap_err().contains("plan_cache"));
        // A record without its decision block is rejected, whether the
        // key is gone or its value is null...
        let headless = good.replacen("\"planner\"", "\"plan\"", 1);
        assert_ne!(headless, good);
        assert!(validate_bench_text(&headless).unwrap_err().contains("planner"));
        let nulled = good.replacen("\"planner\": {", "\"planner\": null, \"x\": {", 1);
        assert_ne!(nulled, good);
        assert!(validate_bench_text(&nulled).unwrap_err().contains("planner"));
        // ...and the block itself is checked (format key, bool fields).
        let badfmt = good.replacen("\"chunks\": 4", "\"chunks\": 0", 1);
        assert_ne!(badfmt, good);
        assert!(validate_bench_text(&badfmt).unwrap_err().contains("chunks"));
        let badbool = good.replacen("\"cache_hit\": false", "\"cache_hit\": \"no\"", 1);
        assert_ne!(badbool, good);
        assert!(validate_bench_text(&badbool).unwrap_err().contains("cache_hit"));
        // Negative cache counters are rejected.
        let neg = good.replacen("\"misses\": 1", "\"misses\": -1", 1);
        assert_ne!(neg, good);
        assert!(validate_bench_text(&neg).unwrap_err().contains("misses"));
    }

    /// A hand-built graph artifact with empty `records` (legal since v7
    /// when `spmspv` is present).
    fn graph_file() -> BenchFile {
        BenchFile {
            schema_version: BENCH_SCHEMA_VERSION,
            machine: MachineInfo {
                os: "linux".into(),
                arch: "x86_64".into(),
                available_threads: 8,
                machine_bandwidth_gbs: 10.0,
            },
            scale: 0.002,
            iterations: 3,
            seed: 42,
            records: Vec::new(),
            service: None,
            plan_cache: None,
            spmspv: Some(GraphSummary {
                matrices: vec![GraphMatrixRecord {
                    matrix: "plaw_011".into(),
                    matrix_id: 11,
                    nrows: 500,
                    nnz: 4000,
                    threads: vec![1, 2, 4, 7],
                    crossover_density: 0.31,
                    sweep: vec![SpmspvSweepPoint {
                        density: 0.01,
                        frontier_nnz: 5,
                        spmspv_s: 2.0e-6,
                        dense_s: 9.0e-6,
                        path: "csc-bucket".into(),
                    }],
                    bfs_source: 17,
                    bfs_levels: 5,
                    bfs_reached: 480,
                    bfs_iter_s: vec![1.0e-6, 2.0e-6, 2.0e-6, 1.0e-6],
                    pagerank_iterations: 2,
                    pagerank_iter_s: vec![3.0e-6, 2.5e-6],
                    pagerank_paths: vec!["dense".into(), "csc-bucket".into()],
                    pagerank_final_active: 12,
                    pagerank_residual: 4.2e-7,
                }],
            }),
        }
    }

    #[test]
    fn validator_enforces_the_v7_graph_contract() {
        let good = serde_json::to_string_pretty(&graph_file()).unwrap();
        validate_bench_text(&good).unwrap();

        // The spmspv key is mandatory even when null...
        let missing = good.replacen("\"spmspv\"", "\"graph\"", 1);
        assert_ne!(missing, good);
        assert!(validate_bench_text(&missing).unwrap_err().contains("spmspv"));
        // ...and a null section revives the empty-records complaint.
        let gutted = {
            let start = good.find("\"spmspv\"").unwrap();
            format!("{}\"spmspv\": null\n}}\n", &good[..start])
        };
        assert!(validate_bench_text(&gutted).unwrap_err().contains("records"));
        // The acceptance criterion: crossover must be finite and > 0.
        let zero = good.replacen("\"crossover_density\": 0.31", "\"crossover_density\": 0.0", 1);
        assert_ne!(zero, good);
        assert!(validate_bench_text(&zero).unwrap_err().contains("crossover_density"));
        // Sweep points carry real timings on both sides.
        let dead = good.replacen("\"dense_s\": 9e-6", "\"dense_s\": 0.0", 1);
        assert_ne!(dead, good);
        assert!(validate_bench_text(&dead).unwrap_err().contains("dense_s"));
        // Only the three known kernel paths are accepted.
        let odd = good.replacen("\"csc-bucket\"", "\"csc-turbo\"", 1);
        assert_ne!(odd, good);
        assert!(validate_bench_text(&odd).unwrap_err().contains("path"));
        // PageRank evidence arrays must match the iteration count.
        let short = good.replacen("\"pagerank_iterations\": 2", "\"pagerank_iterations\": 3", 1);
        assert_ne!(short, good);
        assert!(validate_bench_text(&short).unwrap_err().contains("pagerank_iter"));
        // An empty matrices array measured nothing.
        let mut empty = graph_file();
        empty.spmspv = Some(GraphSummary { matrices: Vec::new() });
        let empty = serde_json::to_string_pretty(&empty).unwrap();
        assert!(validate_bench_text(&empty).unwrap_err().contains("matrices"));
    }
}
