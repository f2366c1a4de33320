//! The three workloads. Each draws its inputs from the seed, then alternates
//! set-ups with measured parts (set-up, part, set-up, part, set-up, part):
//! the median set-up time is `setup_s`, and the parts together make the
//! measured phase. Spreading the measured phase over the whole run makes
//! it likelier that some of it falls in a quiet stretch of a shared machine.
//! Every answer is checked; a traced run adds the per-layer probes.

use crate::openloop::{lateness, Generator, Outcome, Record};
use crate::probes::{self, Values};
use crate::schedule::{
    self, highest_passing, ladder_rate, permutation, poisson, rung_passes, seeded, Arrival, Op,
    OpSource, Rng,
};
use crate::setup::{self, build, draw, ground_truth, params, request, FlatNsg, SetupTimes, K, N};
use crate::stats::{robust, summarize, summarize_windows, windows};
use crate::trace::{Layer, Tracer};
use nsg_core::delta::MutableIndex;
use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::nsg::{NsgIndex, QuantizedNsg};
use nsg_core::snapshot::{write_quantized_snapshot, Snapshot};
use nsg_knn::KnnGraph;
use nsg_serve::{MutationPolicy, ServeError, Server, ServerConfig};
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::store::VectorStore;
use nsg_vectors::VectorSet;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Offered rate of `frozen-serve`'s measured window: about 40 % of the
/// ~24 000 qps one worker sustains on this workload.
pub const FROZEN_NOMINAL_QPS: f64 = 10_000.0;
/// Offered rate of `mutable-serve`'s measured window (all operations), about
/// 25 % of the ~6 300 ops/s one worker sustains on this mix.
pub const MUTABLE_NOMINAL_QPS: f64 = 1500.0;
/// Offered rate of the open-loop pass the traced `sq8-batch` run makes for
/// its generator and serve-layer figures.
const SQ8_PROBE_QPS: f64 = 2000.0;
/// `mutable-serve`: the frozen base holds this share of the corpus, the
/// set-up inserts the next `SETUP_INSERT_SHARE`, and the rest is held out
/// for inserts during the run.
const BASE_SHARE: f64 = 0.90;
const SETUP_INSERT_SHARE: f64 = 0.05;
const INSERT_SHARE: f64 = 0.02;
const DELETE_SHARE: f64 = 0.01;
/// Queries per `search_batch` call in `sq8-batch`, and its rerank factor.
const BATCH: usize = 64;
const RERANK: usize = 2;
/// Set-ups of an end-to-end run (a traced run sets up once), and the parts
/// the measured phase is split into.
const SETUP_REPS: usize = 3;
const PARTS: usize = 3;
/// Shares of the run's seconds, summed over the parts: warm-up, measured
/// window and saturation phase of the serving workloads; each of the (at
/// most seven) ladder rungs of a traced run.
const WARM_SHARE: f64 = 0.05;
const WINDOW_SHARE: f64 = 0.5;
const SATURATION_SHARE: f64 = 0.2;
const RUNG_SHARE: f64 = 0.04;
/// Requests kept outstanding in the saturation phase.
const SATURATION_DEPTH: usize = 32;
/// Latencies and rates are taken per sub-window of these lengths (seconds)
/// and read on the quiet side (`stats::robust`); a ladder rung is judged on
/// `RUNG_WINDOWS` sub-windows.
const SUB_WINDOW_S: f64 = 0.25;
const RATE_WINDOW_S: f64 = 0.5;
const RUNG_WINDOWS: usize = 5;
/// `sq8-batch` measures for this share of the run's seconds, in
/// sub-windows of `BATCH_WINDOW_S`.
const BATCH_SHARE: f64 = 0.9;
const BATCH_WINDOW_S: f64 = 1.0;

/// One worker behind an admission queue deep enough that a stall of the
/// machine delays requests instead of rejecting them.
fn server_config() -> ServerConfig {
    ServerConfig::with_workers(1).queue_capacity(1024)
}

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scratch: PathBuf,
}

impl Ctx {
    /// Whether set-up `part` (0-based, one per measured part) runs: all of
    /// them in an end-to-end run, only the first in a traced run.
    fn sets_up(&self, part: usize) -> bool {
        part < if self.traced { 1 } else { SETUP_REPS }
    }
}

#[derive(Default)]
pub struct Report {
    /// Operations attempted, and those that failed or returned a wrong
    /// answer.
    pub attempted: u64,
    pub failed: u64,
    /// Answers that failed a correctness check (a subset of `failed`).
    pub wrong: u64,
    pub e2e: Values,
    pub layers: Values,
    pub notes: Vec<String>,
}

impl Report {
    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn wrong_answer(&mut self) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
    }

    fn ok_rate(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Exactly `K` distinct ids, each accepted by `valid`.
pub fn answer_ok(ids: &[u32], valid: impl Fn(u32) -> bool) -> bool {
    ids.len() == K
        && ids
            .iter()
            .enumerate()
            .all(|(i, &id)| valid(id) && !ids[..i].contains(&id))
}

fn hits(ids: &[u32], truth: impl Iterator<Item = u32>) -> usize {
    truth.filter(|t| ids.contains(t)).count()
}

/// Duration of the last span called `name`, in seconds (0 if absent).
fn span_s(tracer: &Tracer, name: &str) -> f64 {
    tracer
        .spans()
        .iter()
        .rev()
        .find(|s| s.name == name)
        .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
}

/// Request-log ranges of one serving run's phases.
#[derive(Default)]
struct ServePhases {
    windows: Vec<Range<usize>>,
    /// Saturation phases and how long each lasted (seconds).
    saturations: Vec<(Range<usize>, f64)>,
    ladder: Vec<Range<usize>>,
    /// Highest ladder rate meeting the objective (0 when the ladder did not
    /// run or no rung passed).
    slo_qps: f64,
}

impl ServePhases {
    fn in_ladder(&self, seq: usize) -> bool {
        self.ladder.iter().any(|r| r.contains(&seq))
    }

    fn window_records(&self, gen: &Generator<'_>) -> Vec<Record> {
        self.windows
            .iter()
            .flat_map(|r| gen.log.records[r.clone()].iter().copied())
            .collect()
    }

    /// Closed-loop completions per second, read on the quiet side.
    fn saturation_qps(&self, gen: &Generator<'_>) -> f64 {
        let per_window: Vec<f64> = self
            .saturations
            .iter()
            .flat_map(|(r, secs)| completions_per_second(&gen.log.records[r.clone()], *secs))
            .collect();
        robust(&per_window, true)
    }

    /// Open-loop requests (window and ladder) rejected by the admission
    /// queue, over those sent.
    fn rejected_frac(&self, gen: &Generator<'_>) -> f64 {
        let open: Vec<&Record> = self
            .windows
            .iter()
            .chain(&self.ladder)
            .flat_map(|r| &gen.log.records[r.clone()])
            .collect();
        let rejected = open
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Failed(ServeError::Overloaded)))
            .count();
        rejected as f64 / open.len().max(1) as f64
    }
}

/// Measured submission rate of a played schedule.
fn measured_rate(arrivals: &[Arrival], records: &[Record]) -> f64 {
    let at = |i: usize| (arrivals[i].due_ns + records[i].late_ns) as f64;
    let n = arrivals.len().min(records.len());
    if n < 2 {
        return 0.0;
    }
    (n - 1) as f64 * 1e9 / (at(n - 1) - at(0)).max(1.0)
}

/// Completions per second in each full sub-window of a closed-loop phase
/// that lasted `seconds`: completions after the sub-window's first, over
/// the time from its first to its last. (A closed-loop record's due time is
/// its submit time, so it completes at `due_ns + latency`.)
fn completions_per_second(records: &[Record], seconds: f64) -> Vec<f64> {
    let done = records.iter().filter_map(|r| match r.outcome {
        Outcome::Answered { latency_ns, .. } | Outcome::Mutated { latency_ns, .. } => {
            Some(r.due_ns + latency_ns)
        }
        _ => None,
    });
    let full = (seconds / RATE_WINDOW_S).floor() as usize;
    windows(done.map(|t| (t, t)), (RATE_WINDOW_S * 1e9) as u64)
        .iter()
        .take(full)
        .filter(|w| w.len() > 1)
        .map(|w| {
            let (lo, hi) = (
                w.iter().min().copied().unwrap_or(0),
                w.iter().max().copied().unwrap_or(0),
            );
            (w.len() - 1) as f64 * 1e9 / (hi - lo).max(1) as f64
        })
        .collect()
}

/// One measured part of a serving run: a warm-up and a window at
/// `nominal_qps` (open loop), then, if `saturate`, a closed-loop saturation
/// phase with the same operation mix.
fn serve_part(
    ctx: &Ctx,
    gen: &mut Generator<'_>,
    (source, rng): (&mut OpSource, &mut Rng),
    (nominal_qps, saturate): (f64, bool),
    phases: &mut ServePhases,
    tracer: &mut Tracer,
) {
    let share = ctx.seconds / PARTS as f64;
    let warm = poisson(rng, nominal_qps, WARM_SHARE * share, source);
    let span = tracer.begin("bench.warmup", Layer::Bench, 0);
    gen.play(&warm, tracer);
    tracer.end(span);
    let window = poisson(rng, nominal_qps, WINDOW_SHARE * share, source);
    let span = tracer.begin("bench.window", Layer::Bench, 0);
    phases.windows.push(gen.play(&window, tracer));
    tracer.end(span);
    if saturate {
        let seconds = SATURATION_SHARE * share;
        let span = tracer.begin("bench.saturation", Layer::Bench, 0);
        let range = gen.saturate(seconds, SATURATION_DEPTH, || source.draw(rng), tracer);
        tracer.end(span);
        phases.saturations.push((range, seconds));
    }
}

/// The capacity ladder of a traced run: a binary search over the fixed rung
/// rates; each rung is a fresh Poisson schedule drawn from the seed and the
/// rung number.
fn climb_ladder(
    ctx: &Ctx,
    gen: &mut Generator<'_>,
    source: &mut OpSource,
    phases: &mut ServePhases,
    tracer: &mut Tracer,
) {
    let rung_seconds = RUNG_SHARE * ctx.seconds;
    let sub_window_ns = (rung_seconds * 1e9 / RUNG_WINDOWS as f64) as u64;
    let mut rates = Vec::new();
    let span = tracer.begin("bench.ladder", Layer::Bench, 0);
    let best = highest_passing(schedule::LADDER_RUNGS, |rung| {
        let mut rng = seeded(ctx.seed ^ (0x1add_0000 + rung as u64));
        let arrivals = poisson(&mut rng, ladder_rate(rung), rung_seconds, source);
        let range = gen.play(&arrivals, tracer);
        let records = &gen.log.records[range.clone()];
        let sub_windows = windows(
            records.iter().map(|r| (r.due_ns, r.latency_us())),
            sub_window_ns,
        );
        rates.push((rung, measured_rate(&arrivals, records)));
        phases.ladder.push(range);
        rung_passes(&sub_windows)
    });
    tracer.end(span);
    phases.slo_qps = best
        .and_then(|b| rates.iter().find(|(r, _)| *r == b))
        .map_or(0.0, |&(_, q)| q);
}

/// Tallies every request of a serving run: a ladder rejection is that
/// rung's SLO miss (the ladder's measurement), not a failed operation;
/// every other failure, and every answer `answer_valid` rejects, is.
fn tally_serving(
    report: &mut Report,
    gen: &Generator<'_>,
    phases: &ServePhases,
    mut answer_valid: impl FnMut(usize, &[u32]) -> bool,
    mut mutation_valid: impl FnMut(usize, &Record) -> bool,
) {
    for (seq, rec) in gen.log.records.iter().enumerate() {
        match rec.outcome {
            Outcome::Answered { .. } => {
                let ids = gen.log.answer(rec).unwrap_or(&[]);
                if answer_valid(seq, ids) {
                    report.tally(true);
                } else {
                    report.wrong_answer();
                }
            }
            Outcome::Mutated { .. } => {
                if mutation_valid(seq, rec) {
                    report.tally(true);
                } else {
                    report.wrong_answer();
                }
            }
            Outcome::Failed(ServeError::Overloaded) if phases.in_ladder(seq) => {
                report.attempted += 1
            }
            Outcome::Failed(_) | Outcome::Pending => report.tally(false),
        }
    }
}

/// Query latencies of the measured windows grouped into sub-windows, insert
/// latencies (flat) and the mean recall; `truth` maps a query number to its
/// exact neighbours' external ids.
fn window_figures(
    gen: &Generator<'_>,
    phases: &ServePhases,
    truth: impl Fn(usize) -> Vec<u32>,
) -> (Vec<Vec<f64>>, Vec<f64>, f64) {
    let (mut query_us, mut write_us, mut hit, mut answered) =
        (Vec::new(), Vec::new(), 0usize, 0usize);
    for range in &phases.windows {
        let mut part = Vec::new();
        for rec in &gen.log.records[range.clone()] {
            match (rec.op, rec.outcome) {
                (Op::Query(q), Outcome::Answered { latency_ns, .. }) => {
                    part.push((rec.due_ns, latency_ns as f64 / 1e3));
                    let ids = gen.log.answer(rec).unwrap_or(&[]);
                    hit += hits(ids, truth(q as usize).into_iter());
                    answered += 1;
                }
                (Op::Insert(_), Outcome::Mutated { latency_ns, .. }) => {
                    write_us.push(latency_ns as f64 / 1e3)
                }
                _ => {}
            }
        }
        query_us.extend(windows(part, (SUB_WINDOW_S * 1e9) as u64));
    }
    let recall = hit as f64 / (K * answered.max(1)) as f64;
    (query_us, write_us, recall)
}

/// The end-to-end latency, throughput and recall figures. The tail is a
/// note here (and `serve.query_p99_us` in a traced run): on a shared
/// two-core machine it is set by the machine's stalls, not the program.
fn push_latency_figures(
    report: &mut Report,
    query_us: &[Vec<f64>],
    capacity_qps: f64,
    recall: f64,
) {
    let s = summarize_windows(query_us);
    report.notes.push(format!(
        "query latency over {} answers (quiet-side sub-window): p50 {:.1} us, p{} {:.1} us",
        s.n, s.p50, s.tail_p, s.tail
    ));
    report.e2e.extend([
        ("recall_at_10", recall),
        ("query_p50_us", s.p50),
        ("capacity_qps", capacity_qps),
    ]);
}

/// Serve-layer figures: the open-loop windows' tail, the ladder, admission
/// and generator behaviour, and a closed-loop round-trip probe.
fn serve_layer_values(
    report: &mut Report,
    query_us: &[Vec<f64>],
    gen: &Generator<'_>,
    phases: &ServePhases,
    roundtrip: (f64, f64, u64),
) {
    let (late_frac, late_p99) = lateness(&phases.window_records(gen));
    report.layers.extend([
        ("serve.query_p99_us", summarize_windows(query_us).tail),
        ("serve.slo_qps", phases.slo_qps),
        ("serve.roundtrip_us_p50", roundtrip.0),
        ("serve.overhead_us", roundtrip.0 - roundtrip.1),
        ("serve.rejected_frac", phases.rejected_frac(gen)),
        ("loadgen.late_us_p99", late_p99),
        ("loadgen.late_frac", late_frac),
    ]);
    report.failed += roundtrip.2;
}

/// Flags (on stderr) a run whose generator fell behind its schedule.
fn flag_lateness(report: &mut Report, gen: &Generator<'_>, phases: &ServePhases) {
    let (late_frac, late_p99) = lateness(&phases.window_records(gen));
    if late_frac > 0.01 {
        report.notes.push(format!(
            "generator fell behind: {:.2} % of arrivals were submitted more than 50 us late (p99 {late_p99:.1} us); do not trust this run's latencies",
            100.0 * late_frac
        ));
    }
}

/// Probes shared by every workload's traced run.
struct CommonProbes<'a> {
    knn_rows: &'a VectorSet,
    knn: &'a KnnGraph,
    flat: &'a FlatNsg,
    core: &'a dyn AnnIndex,
    core_request: SearchRequest,
    sq8: Option<&'a QuantizedNsg<SquaredEuclidean>>,
    extra: &'a VectorSet,
    queries: &'a VectorSet,
}

fn common_probes(
    p: CommonProbes<'_>,
    ctx: &Ctx,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut rng = seeded(ctx.seed ^ 0x9e0b);
    let knn_recall = probes::knn_recall(p.knn_rows, p.knn, &mut rng, tracer);
    let (degree, reach) = probes::graph_shape(p.flat, tracer);
    let core = probes::search(
        p.core,
        &p.core_request,
        p.queries,
        "core.search_into",
        Layer::CoreSearch,
        tracer,
    );
    let f32_ns = probes::distance(
        &**p.flat.base(),
        p.queries,
        &mut rng,
        "vectors.dist_f32",
        tracer,
    );
    // Workloads that serve f32 rows quantize and snapshot a copy here; the
    // sq8 workload made those calls (and spans) in its own set-up.
    let owned_sq8;
    let sq8 = match p.sq8 {
        Some(q) => q,
        None => {
            owned_sq8 = probes::quantize(p.flat, tracer);
            probes::snapshot(
                p.flat,
                &ctx.scratch.join(format!("probe-{}.nsg2", ctx.seed)),
                tracer,
            )?;
            &owned_sq8
        }
    };
    let sq8_ns = probes::distance(
        &**sq8.store(),
        p.queries,
        &mut rng,
        "vectors.dist_sq8",
        tracer,
    );
    let delta = match p.sq8 {
        Some(q) => probes::delta(
            copy_quantized(q),
            p.extra,
            p.queries,
            &p.core_request,
            &mut rng,
            tracer,
        ),
        None => probes::delta(
            setup::copy_flat(p.flat),
            p.extra,
            p.queries,
            &p.core_request,
            &mut rng,
            tracer,
        ),
    };
    report.failed += delta.failures;
    report.attempted += (p.extra.len() + p.queries.len()) as u64;
    report.layers.extend([
        ("knn.build_s", span_s(tracer, "knn.build_nn_descent")),
        ("knn.graph_recall", knn_recall),
        ("core.build_s", span_s(tracer, "core.build_from_knn")),
        ("core.out_degree_mean", degree),
        ("core.reachable_frac", reach),
        ("core.search_us_p50", core.p50_us),
        ("core.search_us_p99", core.p99_us),
        ("core.dists_per_query", core.dists),
        ("core.hops_per_query", core.hops),
        ("vectors.dist_f32_ns", f32_ns),
        ("vectors.dist_sq8_ns", sq8_ns),
        ("vectors.quantize_s", span_s(tracer, "vectors.quantize_sq8")),
        ("snapshot.write_ms", 1e3 * span_s(tracer, "snapshot.write")),
        ("snapshot.open_us", 1e6 * span_s(tracer, "snapshot.open")),
        (
            "snapshot.into_index_us",
            1e6 * span_s(tracer, "snapshot.into_index"),
        ),
        ("delta.search_us_p50", delta.search_p50_us),
        ("delta.dists_per_query", delta.dists),
        ("delta.insert_us_p50", delta.insert_p50_us),
        ("delta.insert_us_p99", delta.insert_p99_us),
        ("delta.delete_us_p50", delta.delete_p50_us),
        (
            "trace.overhead_frac",
            core.traced_call_us / core.untraced_call_us - 1.0,
        ),
    ]);
    Ok(())
}

/// Per-layer self times, appended last so they cover every probe.
fn self_times(report: &mut Report, tracer: &Tracer) {
    const NAMES: [&str; 8] = [
        "selftime.vectors_ms",
        "selftime.knn_ms",
        "selftime.core_build_ms",
        "selftime.core_search_ms",
        "selftime.delta_ms",
        "selftime.snapshot_ms",
        "selftime.serve_ms",
        "selftime.bench_ms",
    ];
    for (name, ns) in NAMES.iter().zip(tracer.layer_self_ns()) {
        report.layers.push((name, ns as f64 / 1e6));
    }
}

fn copy_quantized(q: &QuantizedNsg<SquaredEuclidean>) -> QuantizedNsg<SquaredEuclidean> {
    NsgIndex::from_store_parts(
        Arc::clone(q.store()),
        Arc::clone(q.base()),
        SquaredEuclidean,
        q.graph().clone(),
        q.navigating_node(),
        *q.params(),
    )
}

fn flat_bytes<S: VectorStore>(index: &NsgIndex<SquaredEuclidean, S>) -> usize {
    index.graph().memory_bytes_exact() + index.store().memory_bytes()
}

// ---------------------------------------------------------------------------

/// `frozen-serve`: an owned flat `NsgIndex` behind a one-worker server,
/// open-loop Poisson queries.
pub fn frozen_serve(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let setup::Data {
        corpus,
        extra,
        queries,
        query_order,
    } = draw(ctx.seed);
    let gt = ground_truth(&corpus, &queries, tracer);
    let corpus = Arc::new(corpus);
    let set_up = |tracer: &mut Tracer| {
        let span = tracer.begin("bench.setup", Layer::Bench, 0);
        let built = build(Arc::clone(&corpus), tracer);
        tracer.end(span);
        Ok(built)
    };
    let mut setups = SetupTimes::default();
    let (index, knn) = setups.time(|| set_up(tracer))?;
    let index = Arc::new(index);
    let server = Server::start(Arc::clone(&index) as Arc<dyn AnnIndex>, server_config());
    let mut gen = Generator::new(&server, &queries, &corpus, request());
    let mut source = OpSource::queries(query_order);
    let mut rng = seeded(ctx.seed ^ 0x5e7e);
    let mut phases = ServePhases::default();
    for part in 0..PARTS {
        if part > 0 && ctx.sets_up(part) {
            setups.time(|| set_up(tracer))?;
        }
        let rates = (FROZEN_NOMINAL_QPS, true);
        serve_part(
            ctx,
            &mut gen,
            (&mut source, &mut rng),
            rates,
            &mut phases,
            tracer,
        );
    }
    if ctx.traced {
        climb_ladder(ctx, &mut gen, &mut source, &mut phases, tracer);
    }

    tracer.span("bench.checks", Layer::Bench, 0, || {
        tally_serving(
            &mut report,
            &gen,
            &phases,
            |_, ids| answer_ok(ids, |id| (id as usize) < N),
            |_, _| false,
        )
    });
    let (query_us, _, recall) = window_figures(&gen, &phases, |q| gt.ids(q).to_vec());
    report.e2e.push(("setup_s", setups.median()));
    push_latency_figures(&mut report, &query_us, phases.saturation_qps(&gen), recall);
    report.e2e.push(("index_bytes", flat_bytes(&index) as f64));
    flag_lateness(&mut report, &gen, &phases);

    if ctx.traced {
        let roundtrip = probes::serve_roundtrip(
            &server,
            &*index,
            Layer::CoreSearch,
            &queries,
            &request(),
            tracer,
        );
        serve_layer_values(&mut report, &query_us, &gen, &phases, roundtrip);
        let probes = CommonProbes {
            knn_rows: &corpus,
            knn: &knn,
            flat: &index,
            core: &*index,
            core_request: request(),
            sq8: None,
            extra: &extra,
            queries: &queries,
        };
        common_probes(probes, ctx, tracer, &mut report)?;
    }
    drop(gen);
    server.shutdown();
    report.e2e.push(("ok_rate", report.ok_rate()));
    self_times(&mut report, tracer);
    Ok(report)
}

/// `mutable-serve`: a `MutableIndex` (90 % base, 5 % inserted at set-up)
/// behind a one-worker mutable server that never compacts, open-loop mix of
/// queries, inserts of held-out rows and deletes of live ids.
pub fn mutable_serve(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let setup::Data {
        corpus,
        extra,
        queries,
        query_order,
    } = draw(ctx.seed);
    let base_len = (BASE_SHARE * N as f64) as usize;
    let setup_end = base_len + (SETUP_INSERT_SHARE * N as f64) as usize;
    let base_rows = Arc::new(corpus.prefix(base_len));
    let set_up = |tracer: &mut Tracer| {
        let span = tracer.begin("bench.setup", Layer::Bench, 0);
        let (base, knn) = build(Arc::clone(&base_rows), tracer);
        let index = MutableIndex::new(base);
        let mut ids = Vec::with_capacity(setup_end - base_len);
        for r in base_len..setup_end {
            let id = tracer.span("delta.insert", Layer::Delta, r as u64, || {
                index.insert(corpus.get(r))
            });
            ids.push(id.map_err(|e| format!("set-up insert of row {r}: {e}"))?);
        }
        tracer.end(span);
        Ok((Arc::new(index), knn, ids))
    };
    let mut setups = SetupTimes::default();
    let (index, knn, setup_ids) = setups.time(|| set_up(tracer))?;

    // External id -> corpus row, for every id the index has handed out.
    let mut row_of: Vec<Option<u32>> = (0..base_len as u32).map(Some).collect();
    for (r, &id) in (base_len..setup_end).zip(&setup_ids) {
        if row_of.len() <= id as usize {
            row_of.resize(id as usize + 1, None);
        }
        row_of[id as usize] = Some(r as u32);
    }
    let mut rng = seeded(ctx.seed ^ 0xde1e);
    let live: Vec<u32> = (0..base_len as u32)
        .chain(setup_ids.iter().copied())
        .collect();
    let victims: Vec<u32> = permutation(&mut rng, live.len() as u32)
        .into_iter()
        .map(|i| live[i as usize])
        .collect();
    let mut source = OpSource::mixed(
        query_order,
        INSERT_SHARE,
        DELETE_SHARE,
        (setup_end as u32..N as u32).collect(),
        victims,
    );

    let server =
        Server::start_mutable(Arc::clone(&index), server_config(), MutationPolicy::never());
    let mut gen = Generator::new(&server, &queries, &corpus, request());
    let mut phases = ServePhases::default();
    for part in 0..PARTS {
        if part > 0 && ctx.sets_up(part) {
            setups.time(|| set_up(tracer))?;
        }
        let rates = (MUTABLE_NOMINAL_QPS, true);
        serve_part(
            ctx,
            &mut gen,
            (&mut source, &mut rng),
            rates,
            &mut phases,
            tracer,
        );
    }
    if ctx.traced {
        climb_ladder(ctx, &mut gen, &mut source, &mut phases, tracer);
    }

    // Replay the acknowledgements in submission order: inserts extend the
    // id map, deletes record the sequence number they were sent at.
    let span = tracer.begin("bench.checks", Layer::Bench, 0);
    let mut deleted_at: Vec<Option<usize>> = Vec::new();
    let mut bad_acks = std::collections::HashSet::new();
    for (seq, rec) in gen.log.records.iter().enumerate() {
        if let Outcome::Mutated { id, applied, .. } = rec.outcome {
            let slot = id as usize;
            match rec.op {
                Op::Insert(r) if applied && row_of.get(slot).is_none_or(Option::is_none) => {
                    row_of.resize(row_of.len().max(slot + 1), None);
                    row_of[slot] = Some(r);
                }
                Op::Delete(target) if applied && target == id => {
                    deleted_at.resize(deleted_at.len().max(slot + 1), None);
                    deleted_at[slot] = Some(seq);
                }
                _ => {
                    bad_acks.insert(seq);
                }
            }
        }
    }
    // A query may return any id the index handed out, except one whose
    // delete was sent before the query was.
    let deleted_before = |id: u32, seq: usize| {
        deleted_at
            .get(id as usize)
            .copied()
            .flatten()
            .is_some_and(|d| d < seq)
    };
    let answer_valid = |seq: usize, ids: &[u32]| {
        answer_ok(ids, |id| {
            row_of.get(id as usize).is_some_and(Option::is_some) && !deleted_before(id, seq)
        })
    };
    tally_serving(&mut report, &gen, &phases, answer_valid, |seq, _| {
        !bad_acks.contains(&seq)
    });
    tracer.end(span);

    // Recall against the live set after the run.
    let live_ids: Vec<u32> = (0..row_of.len() as u32)
        .filter(|&id| row_of[id as usize].is_some() && !deleted_before(id, usize::MAX))
        .collect();
    let live_rows: Vec<u32> = live_ids
        .iter()
        .filter_map(|&id| row_of[id as usize])
        .collect();
    let live = corpus.subset(&live_rows);
    let gt = ground_truth(&live, &queries, tracer);
    let (query_us, insert_us, recall) = window_figures(&gen, &phases, |q| {
        gt.ids(q).iter().map(|&i| live_ids[i as usize]).collect()
    });
    report.e2e.push(("setup_s", setups.median()));
    push_latency_figures(&mut report, &query_us, phases.saturation_qps(&gen), recall);

    let stats = index.delta_stats();
    let delta_bytes =
        index.memory_bytes() - index.base().memory_bytes() + stats.delta_len * corpus.dim() * 4;
    report.e2e.push((
        "index_bytes",
        (flat_bytes(index.base()) + delta_bytes) as f64,
    ));
    let ins = summarize(&insert_us);
    report.notes.push(format!(
        "served inserts in the windows: {} (p50 {:.1} us, p{} {:.1} us from due time); delta {:.2} % of the live set, {} tombstones",
        ins.n,
        ins.p50,
        ins.tail_p,
        ins.tail,
        100.0 * stats.delta_fraction(),
        stats.tombstones
    ));
    flag_lateness(&mut report, &gen, &phases);

    if ctx.traced {
        let roundtrip =
            probes::serve_roundtrip(&server, &*index, Layer::Delta, &queries, &request(), tracer);
        serve_layer_values(&mut report, &query_us, &gen, &phases, roundtrip);
        let probes = CommonProbes {
            knn_rows: &base_rows,
            knn: &knn,
            flat: index.base(),
            core: index.base(),
            core_request: request(),
            sq8: None,
            extra: &extra,
            queries: &queries,
        };
        common_probes(probes, ctx, tracer, &mut report)?;
    }
    drop(gen);
    server.shutdown();
    report.e2e.push(("ok_rate", report.ok_rate()));
    self_times(&mut report, tracer);
    Ok(report)
}

/// What the sq8-batch set-up produces.
struct Sq8Setup {
    quantized: QuantizedNsg<SquaredEuclidean>,
    mapped: Arc<dyn AnnIndex>,
    bytes: usize,
    knn: KnnGraph,
}

/// Build, quantize, write the snapshot to `path`, map it and open it as an
/// index, each call in its own span.
fn sq8_set_up(
    corpus: &Arc<VectorSet>,
    path: &Path,
    tracer: &mut Tracer,
) -> Result<Sq8Setup, String> {
    let span = tracer.begin("bench.setup", Layer::Bench, 0);
    let (flat, knn) = build(Arc::clone(corpus), tracer);
    let quantized = tracer.span("vectors.quantize_sq8", Layer::Vectors, 0, || {
        flat.quantize_sq8()
    });
    tracer
        .span("snapshot.write", Layer::Snapshot, 0, || {
            write_quantized_snapshot(path, &quantized)
        })
        .map_err(|e| format!("write_quantized_snapshot: {e}"))?;
    let snap = tracer
        .span("snapshot.open", Layer::Snapshot, 0, || Snapshot::open(path))
        .map_err(|e| format!("Snapshot::open: {e}"))?;
    let bytes = snap.graph().memory_bytes_exact()
        + snap.sq8().map_or(0, |s| s.memory_bytes())
        + snap.vectors().memory_bytes();
    let mapped = tracer.span("snapshot.into_index", Layer::Snapshot, 0, || {
        snap.into_index(params())
    });
    tracer.end(span);
    Ok(Sq8Setup {
        quantized,
        mapped,
        bytes,
        knn,
    })
}

fn remove(path: &Path) -> Result<(), String> {
    std::fs::remove_file(path).map_err(|e| format!("remove {}: {e}", path.display()))
}

/// `sq8-batch`: build, SQ8-quantize, write an NSG2 snapshot, map it and
/// serve closed-loop `search_batch` calls on two threads with rerank.
pub fn sq8_batch(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let setup::Data {
        corpus,
        extra,
        queries,
        query_order,
    } = draw(ctx.seed);
    let gt = ground_truth(&corpus, &queries, tracer);
    let corpus = Arc::new(corpus);
    // The served index maps `path`; later set-ups write (and drop) their
    // own file so the mapping in use is never overwritten.
    let path = ctx.scratch.join(format!("sq8-{}.nsg2", ctx.seed));
    let rebuild_path = ctx.scratch.join(format!("sq8-{}-rebuild.nsg2", ctx.seed));
    let mut setups = SetupTimes::default();
    let Sq8Setup {
        quantized,
        mapped,
        bytes,
        knn,
    } = setups.time(|| sq8_set_up(&corpus, &path, tracer))?;
    let req = request().with_rerank(RERANK);

    // The mapped index must answer exactly as the in-memory one.
    let span = tracer.begin("bench.checks", Layer::Bench, 0);
    let (mut a, mut b) = (quantized.new_context(), mapped.new_context());
    let mut reference: Vec<Vec<(u32, f32)>> = Vec::with_capacity(queries.len());
    for q in 0..queries.len() {
        let scored = |ns: &[nsg_core::neighbor::Neighbor]| -> Vec<(u32, f32)> {
            ns.iter().map(|n| (n.id, n.dist)).collect()
        };
        let mine = scored(quantized.search_into(&mut a, &req, queries.get(q)));
        let theirs = scored(mapped.search_into(&mut b, &req, queries.get(q)));
        let ids: Vec<u32> = mine.iter().map(|p| p.0).collect();
        if mine == theirs && answer_ok(&ids, |id| (id as usize) < N) {
            report.tally(true);
        } else {
            report.wrong_answer();
        }
        reference.push(mine);
    }
    tracer.end(span);

    // Closed loop: batches of BATCH queries in the run's query order
    // (wrapping), timed per call; every answer must equal the reference.
    let batches: Vec<(Vec<u32>, VectorSet)> = (0..queries.len().div_ceil(BATCH))
        .map(|b| {
            let ids: Vec<u32> = (0..BATCH)
                .map(|i| query_order[(b * BATCH + i) % queries.len()])
                .collect();
            let rows = queries.subset(&ids);
            (ids, rows)
        })
        .collect();
    // Per sub-window: call latencies, and seconds inside calls.
    let (mut call_us, mut busy): (Vec<Vec<f64>>, Vec<f64>) = (Vec::new(), Vec::new());
    let (mut answered, mut hit, mut calls) = (0usize, 0usize, 0usize);
    for part in 0..PARTS {
        if part > 0 && ctx.sets_up(part) {
            setups.time(|| sq8_set_up(&corpus, &rebuild_path, tracer))?;
            remove(&rebuild_path)?;
        }
        for (_, batch) in &batches {
            mapped.search_batch(batch, &req);
        }
        let window = tracer.begin("bench.window", Layer::Bench, 0);
        let start = Instant::now();
        let measure = BATCH_SHARE * ctx.seconds / PARTS as f64;
        let first = call_us.len();
        while start.elapsed().as_secs_f64() < measure {
            let (ids, batch) = &batches[calls % batches.len()];
            let t = Instant::now();
            let answers = tracer.span("core.search_batch", Layer::CoreSearch, calls as u64, || {
                mapped.search_batch(batch, &req)
            });
            let dt = t.elapsed().as_secs_f64();
            let w = first + ((t - start).as_secs_f64() / BATCH_WINDOW_S) as usize;
            if call_us.len() <= w {
                call_us.resize_with(w + 1, Vec::new);
                busy.resize(w + 1, 0.0);
            }
            call_us[w].push(dt * 1e6);
            busy[w] += dt;
            for (&q, ans) in ids.iter().zip(&answers) {
                let got: Vec<(u32, f32)> = ans.iter().map(|n| (n.id, n.dist)).collect();
                if got == reference[q as usize] {
                    report.tally(true);
                } else {
                    report.wrong_answer();
                }
                let ids: Vec<u32> = got.iter().map(|p| p.0).collect();
                hit += hits(&ids, gt.ids(q as usize).iter().copied());
                answered += 1;
            }
            calls += 1;
        }
        tracer.end(window);
    }
    report.e2e.push(("setup_s", setups.median()));
    // Throughput per sub-window (queries answered over time inside calls);
    // a part's trailing sub-window shorter than half the longest is left
    // out.
    let typical = call_us.iter().map(Vec::len).max().unwrap_or(0);
    let qps: Vec<f64> = call_us
        .iter()
        .zip(&busy)
        .filter(|(c, _)| 2 * c.len() >= typical)
        .map(|(c, &secs)| (c.len() * BATCH) as f64 / secs.max(1e-9))
        .collect();
    let recall = hit as f64 / (K * answered.max(1)) as f64;
    push_latency_figures(&mut report, &call_us, robust(&qps, true), recall);
    report.e2e.push(("index_bytes", bytes as f64));
    report.notes.push(format!(
        "{calls} search_batch calls of {BATCH} queries; query latency is the call's"
    ));

    if ctx.traced {
        // The serve layer and generator on this workload's index: an
        // open-loop pass, the ladder and a closed-loop client on a
        // one-worker server.
        let server = Server::start(Arc::clone(&mapped), server_config());
        let mut gen = Generator::new(&server, &queries, &corpus, req);
        let mut source = OpSource::queries(query_order);
        let mut rng = seeded(ctx.seed ^ 0x5e7e);
        let mut phases = ServePhases::default();
        let rates = (SQ8_PROBE_QPS, false);
        serve_part(
            ctx,
            &mut gen,
            (&mut source, &mut rng),
            rates,
            &mut phases,
            tracer,
        );
        climb_ladder(ctx, &mut gen, &mut source, &mut phases, tracer);
        tally_serving(
            &mut report,
            &gen,
            &phases,
            |_, ids| answer_ok(ids, |id| (id as usize) < N),
            |_, _| false,
        );
        let (query_us, _, _) = window_figures(&gen, &phases, |q| gt.ids(q).to_vec());
        let roundtrip =
            probes::serve_roundtrip(&server, &*mapped, Layer::CoreSearch, &queries, &req, tracer);
        serve_layer_values(&mut report, &query_us, &gen, &phases, roundtrip);
        drop(gen);
        server.shutdown();
        let flat = NsgIndex::from_parts(
            Arc::clone(quantized.base()),
            SquaredEuclidean,
            quantized.graph().clone(),
            quantized.navigating_node(),
            params(),
        );
        let probes = CommonProbes {
            knn_rows: &corpus,
            knn: &knn,
            flat: &flat,
            core: &*mapped,
            core_request: req,
            sq8: Some(&quantized),
            extra: &extra,
            queries: &queries,
        };
        common_probes(probes, ctx, tracer, &mut report)?;
    }
    drop(mapped);
    remove(&path)?;
    report.e2e.push(("ok_rate", report.ok_rate()));
    self_times(&mut report, tracer);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_need_k_distinct_valid_ids() {
        let good: Vec<u32> = (0..K as u32).collect();
        assert!(answer_ok(&good, |_| true));
        assert!(!answer_ok(&good[..K - 1], |_| true));
        let mut dup = good.clone();
        dup[3] = dup[2];
        assert!(!answer_ok(&dup, |_| true));
        assert!(!answer_ok(&good, |id| id != 5));
    }
}
