//! The workloads: set-up, the closed-loop timed phase, output
//! checks, and the end-to-end or per-layer metrics of one run.

use crate::calib::Probe;
use crate::layers::PER_LAYER;
use crate::probes;
use crate::refs::{cell_id, digest_line, ids, Refs};
use crate::sys::{self, Server};
use crate::trace::{median, tail, Tracer};
use crate::wire::{decode, eval_line, Conn, Expect, Shape};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime};
use yoco_sweep::api::{MetricsReport, Response};
use yoco_sweep::{grids, AcceleratorKind, HistSnapshot, LatencyHistogram, Scenario, ScenarioKind};

/// Rounds of an untraced `warm-serve` run. Each round sets up its own
/// server and then measures on it, so the set-ups (and their median,
/// `setup_s`) are spread through the run like the timed ops, rather than
/// bunched at its start where one moment of the host's speed sets them.
const ROUNDS: usize = 5;
/// `warm-serve` cuts its timed phase into slices of this many seconds,
/// each with its own op-latency median and host speed factor: the host's
/// speed can change from one second to the next (see `calib`).
const WINDOW_S: f64 = 0.25;
/// How often the host speed is sampled while a `cold-figures` op runs.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);
/// Distinct 8-cell `dse-full` subsets cycled by `warm-serve`: more than
/// the server's 256-entry batch memo holds, so each runs the per-cell memo.
const SUBSETS: usize = 320;
const SUBSET_CELLS: usize = 8;

/// Where a run reads and writes.
pub struct Ctx {
    /// Directory holding the release `sweep` and `yoco-serve`.
    pub bins: PathBuf,
    /// Scratch directory of this run (removed afterwards).
    pub run_dir: PathBuf,
    /// `reference/` beside the benchmark.
    pub refs: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans_out: PathBuf,
}

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks; any makes the run incorrect.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: BTreeMap<String, f64>,
}

/// SplitMix64: the benchmark's own seeded generator for mixes and draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("clearing {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("creating {}: {e}", path.display()))
}

/// Runs `name` once.
pub fn run(ctx: &Ctx, name: &str) -> Result<Outcome, String> {
    match name {
        "cold-figures" => cold_figures(ctx),
        "warm-serve" => warm_serve(ctx),
        other => Err(format!(
            "unknown workload `{other}` (known: {})",
            crate::layers::WORKLOADS.join(", ")
        )),
    }
}

/// Cache entries in `dir` written at or after `since`, and how many of
/// them are chip-model cells (a YOCO GEMM or an attention pipeline: the
/// cells only `YocoChip` and `AttentionPipeline` compute). The entries are
/// what the program itself wrote, so they show which layers it ran.
fn entries_written(dir: &Path, since: SystemTime) -> Result<(usize, usize), String> {
    let Ok(listing) = std::fs::read_dir(dir) else {
        return Ok((0, 0));
    };
    let (mut entries, mut chip) = (0, 0);
    for entry in listing {
        let path = entry.map_err(|e| e.to_string())?.path();
        let fresh = std::fs::metadata(&path)
            .and_then(|m| m.modified())
            .is_ok_and(|m| m >= since);
        if !fresh {
            continue;
        }
        entries += 1;
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let value: serde_json::Value = serde_json::from_str(&text)
            .map_err(|e| format!("cache entry {}: {e}", path.display()))?;
        let kind = value
            .as_object()
            .and_then(|m| m.get("scenario"))
            .ok_or_else(|| format!("cache entry {} has no scenario", path.display()))?;
        let kind: ScenarioKind = serde_json::from_value(kind)
            .map_err(|e| format!("cache entry {}: {e}", path.display()))?;
        if matches!(
            kind,
            ScenarioKind::Gemm {
                accelerator: AcceleratorKind::Yoco,
                ..
            } | ScenarioKind::Attention { .. }
        ) {
            chip += 1;
        }
    }
    Ok((entries, chip))
}

// ---------------------------------------------------------------------------
// cold-figures: `sweep run all` over an empty cache, one process per op
// ---------------------------------------------------------------------------

struct SweepOp {
    wall_ms: f64,
    cpu_s: f64,
    /// The host speed factor over the op.
    factor: f64,
    rss_mb: f64,
    /// `None` when the op produced the reference report.
    problem: Option<String>,
    check_us: f64,
}

fn sweep_run(
    ctx: &Ctx,
    ws: &Path,
    grid: &str,
    digest: Option<&str>,
    probe: &Probe,
    t: &mut Tracer,
) -> Result<SweepOp, String> {
    fresh_dir(ws)?;
    let report = ws.join("report.json");
    let create = |name: &str| std::fs::File::create(ws.join(name)).map_err(|e| e.to_string());
    let start = Instant::now();
    let child = Command::new(ctx.bins.join("sweep"))
        .args(["run", grid, "--quiet", "--report"])
        .arg(&report)
        .env("YOCO_WORKSPACE_ROOT", ws)
        .stdin(Stdio::null())
        .stdout(create("sweep.out")?)
        .stderr(create("sweep.log")?)
        .spawn()
        .map_err(|e| format!("spawning sweep: {e}"))?;
    let (usage, factor) = probe.during(SAMPLE_EVERY, || sys::reap(child));
    let usage = usage?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let check = Instant::now();
    t.enter("client.check", None);
    let problem = if usage.status != 0 {
        Some(format!(
            "sweep run {grid} exited with status {}",
            usage.status
        ))
    } else {
        match (std::fs::read(&report), digest) {
            (Err(e), _) => Some(format!("reading the {grid} report: {e}")),
            (Ok(bytes), Some(want)) if digest_line(&bytes) != want => Some(format!(
                "sweep run {grid}: canonical report {} differs from the reference {want}",
                digest_line(&bytes)
            )),
            _ => None,
        }
    };
    t.exit();
    let check_us = check.elapsed().as_secs_f64() * 1e6;
    Ok(SweepOp {
        wall_ms: wall_ms + check_us / 1e3,
        cpu_s: usage.cpu_s,
        factor,
        rss_mb: usage.rss_mb,
        problem,
        check_us,
    })
}

/// The cells, cache hits, and computed cells `sweep run` reported on its
/// summary line (`N cells: H cache hits, M computed, T ms`).
fn sweep_counts(ws: &Path) -> Result<[f64; 3], String> {
    let path = ws.join("sweep.out");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let line = text
        .lines()
        .find(|l| l.contains(" cells: "))
        .ok_or_else(|| format!("no summary line in {}", path.display()))?;
    let numbers: Vec<f64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .collect();
    match numbers.as_slice() {
        [cells, hits, computed, ..] => Ok([*cells, *hits, *computed]),
        _ => Err(format!("unreadable summary line `{line}`")),
    }
}

/// A stretch of a timed phase with one host speed factor: one op on
/// `cold-figures`, one `WINDOW_S` window on `warm-serve`.
#[derive(Debug, Clone, Copy)]
struct Slice {
    wall_s: f64,
    /// Median op latency in the slice.
    p50_ms: f64,
    /// CPU time of the system under test in the slice.
    cpu_s: f64,
    /// The host speed factor over the slice (see `calib`).
    factor: f64,
}

#[derive(Default)]
struct Phase {
    /// Every op's latency as measured, ms.
    lat_ms: Vec<f64>,
    slices: Vec<Slice>,
    /// `(shape index, op µs, check µs)` per op of a traced socket phase.
    per_op: Vec<(usize, f64, f64)>,
    attempted: u64,
    failed: u64,
    first_problem: Option<String>,
}

/// Each end-to-end time is scaled to the reference host speed: a time
/// measured in a slice is divided by that slice's factor.
impl Phase {
    /// Completed ops ÷ wall time of the phase.
    fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.slices.iter().map(|s| s.wall_s / s.factor).sum::<f64>()
    }

    /// The median over slices of their median op latency.
    fn p50_ms(&self) -> f64 {
        let p50: Vec<f64> = self.slices.iter().map(|s| s.p50_ms / s.factor).collect();
        median(&p50)
    }

    /// CPU time of the system under test ÷ completed ops.
    fn cpu_ms_per_op(&self) -> f64 {
        let cpu: f64 = self.slices.iter().map(|s| s.cpu_s / s.factor).sum();
        cpu * 1e3 / self.attempted as f64
    }

    /// The same three figures as measured, unscaled, for the log.
    fn unscaled(&self) -> String {
        let sum = |f: fn(&Slice) -> f64| self.slices.iter().map(f).sum::<f64>();
        let p50: Vec<f64> = self.slices.iter().map(|s| s.p50_ms).collect();
        let factors: Vec<f64> = self.slices.iter().map(|s| s.factor).collect();
        format!(
            "host speed factor {:.3} (median); unscaled: {:.4} op/s, p50 {:.4} ms, {:.4} CPU ms/op",
            median(&factors),
            self.attempted as f64 / sum(|s| s.wall_s),
            median(&p50),
            sum(|s| s.cpu_s) * 1e3 / self.attempted as f64
        )
    }

    fn absorb(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        if let Some(p) = &self.first_problem {
            out.problems.push(format!(
                "{} of {} ops failed; first: {p}",
                self.failed, self.attempted
            ));
        }
    }
}

fn cold_figures(ctx: &Ctx) -> Result<Outcome, String> {
    let refs = Refs::load(&ctx.refs)?;
    let probe = Probe::new();
    let mut off = Tracer::new(false);
    let mut out = Outcome::default();
    // Set-up: one untimed, checked cold batch, so the binary's pages and
    // the page cache are warm before timing. A bare `sweep` start is a
    // millisecond of noise; repeating the whole batch would double the run.
    let ws = ctx.run_dir.join("op");
    let warm_up = sweep_run(ctx, &ws, "all", Some(&refs.all_digest), &probe, &mut off)?;
    if let Some(p) = warm_up.problem {
        return Err(format!("set-up: {p}"));
    }
    let setup_s = warm_up.wall_ms / 1e3 / warm_up.factor;
    let mut ops: Vec<SweepOp> = Vec::new();
    let phase = |seconds: f64, t: &mut Tracer, ops: &mut Vec<SweepOp>| -> Result<Phase, String> {
        let mut ph = Phase::default();
        let start = Instant::now();
        while ph.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
            t.enter("op.all", Some(ph.attempted));
            let op = sweep_run(ctx, &ws, "all", Some(&refs.all_digest), &probe, t)?;
            t.exit();
            ph.attempted += 1;
            ph.lat_ms.push(op.wall_ms);
            ph.slices.push(Slice {
                wall_s: op.wall_ms / 1e3,
                p50_ms: op.wall_ms,
                cpu_s: op.cpu_s,
                factor: op.factor,
            });
            if let Some(p) = &op.problem {
                ph.failed += 1;
                ph.first_problem.get_or_insert_with(|| p.clone());
            }
            ops.push(op);
        }
        Ok(ph)
    };
    if !ctx.trace {
        let ph = phase(ctx.seconds, &mut off, &mut ops)?;
        ph.absorb(&mut out);
        let rss_mb = ops.iter().map(|o| o.rss_mb).fold(0.0, f64::max);
        end_to_end(&mut out, setup_s, &ph, rss_mb);
        return Ok(out);
    }

    let plain = phase(ctx.seconds / 2.0, &mut off, &mut ops)?;
    plain.absorb(&mut out);
    let mut t = Tracer::new(true);
    ops.clear();
    let traced = phase(ctx.seconds / 2.0, &mut t, &mut ops)?;
    traced.absorb(&mut out);
    let mut m = layer_map();
    // What the last op's `sweep` process reported and wrote.
    let [cells, hits, computed] = sweep_counts(&ws)?;
    m.insert("engine.cells".into(), cells);
    m.insert("engine.hits".into(), hits);
    m.insert("engine.misses".into(), computed);
    let (entries, chip) = entries_written(&ws.join("results/cache"), SystemTime::UNIX_EPOCH)?;
    m.insert("cache.entries_written".into(), entries as f64);
    m.insert("core.cells".into(), chip as f64);
    let check: Vec<f64> = ops.iter().map(|o| o.check_us).collect();
    client_metrics(&mut m, &traced.lat_ms, median(&check));
    overhead_metrics(&mut m, &plain, &traced);

    let engine = probes::engine(&mut t, &ctx.run_dir.join("engine-cache"))?;
    if digest_line(engine.canonical.as_bytes()) != refs.all_digest {
        out.problems
            .push("in-process Engine::run of `all` differs from the reference digest".into());
    }
    m.insert("engine.busy_s".into(), engine.busy_s);
    m.insert("engine.idle_share".into(), engine.idle_share);
    probes::studies(&mut t)?;
    probes::nn(&mut t)?;
    probes::circuit(&mut t)?;
    probes::core(&mut t)?;
    probes::cache(&mut t, &ctx.run_dir.join("probe-cache"))?;
    m.insert("cache.store_us".into(), span_median(&t, "cache.store"));
    m.insert("cache.lookup_us".into(), span_median(&t, "cache.lookup"));
    evaluator_metrics(&mut m, &t);
    finish_traced(ctx, "cold-figures", &t, m, &mut out)?;
    Ok(out)
}

/// Every per-layer metric at zero: a layer a workload never calls reads 0.
fn layer_map() -> BTreeMap<String, f64> {
    PER_LAYER
        .iter()
        .map(|(n, _)| (n.to_string(), 0.0))
        .collect()
}

/// The end-to-end metrics of an untraced run, whose timed ops are `ph`.
fn end_to_end(out: &mut Outcome, setup_s: f64, ph: &Phase, rss_mb: f64) {
    eprintln!("perfbench: {}", ph.unscaled());
    let m = &mut out.metrics;
    m.insert("setup_s".into(), setup_s);
    m.insert("ops_per_s".into(), ph.ops_per_s());
    m.insert("p50_ms".into(), ph.p50_ms());
    m.insert("cpu_ms_per_op".into(), ph.cpu_ms_per_op());
    m.insert(
        "ok_share".into(),
        (ph.attempted - ph.failed) as f64 / ph.attempted as f64,
    );
    m.insert("rss_mb".into(), rss_mb);
}

/// Tracing's cost (the same workload untraced in `plain`, traced in
/// `traced`) and the host's speed over both.
fn overhead_metrics(m: &mut BTreeMap<String, f64>, plain: &Phase, traced: &Phase) {
    m.insert(
        "trace.overhead_share".into(),
        1.0 - traced.ops_per_s() / plain.ops_per_s(),
    );
    let factors: Vec<f64> = [plain, traced]
        .iter()
        .flat_map(|ph| ph.slices.iter().map(|s| s.factor))
        .collect();
    m.insert("host.speed_factor".into(), median(&factors));
}

fn span_median(t: &Tracer, name: &str) -> f64 {
    median(&t.self_us(name))
}

fn evaluator_metrics(m: &mut BTreeMap<String, f64>, t: &Tracer) {
    let ms = |name: &str| t.self_us(name).iter().sum::<f64>() / 1e3;
    m.insert(
        "circuit.mismatch_sample_us".into(),
        span_median(t, "circuit.mismatch_sample"),
    );
    m.insert(
        "circuit.array_build_us".into(),
        span_median(t, "circuit.array_build"),
    );
    m.insert("circuit.vmm_us".into(), span_median(t, "circuit.vmm"));
    m.insert("nn.standin_train_ms".into(), ms("nn.standin_train"));
    m.insert("nn.analog_eval_ms".into(), ms("nn.analog_eval"));
    let fig6d = ms("studies.fig6d");
    m.insert("studies.fig6d_ms".into(), fig6d);
    m.insert("studies.fig6bc_ms".into(), ms("studies.fig6bc"));
    m.insert("studies.fig6f_ms".into(), ms("studies.fig6f"));
    let rest: f64 = yoco_sweep::StudyId::ALL
        .iter()
        .map(|s| s.name())
        .filter(|n| !["fig6d", "fig6bc", "fig6f"].contains(n))
        .map(|n| ms(&format!("studies.{n}")))
        .sum();
    m.insert("studies.rest_ms".into(), rest);
    // fig6d is 2000 Monte-Carlo instances: host time per simulated event.
    m.insert(
        "circuit.mc_instances_per_s".into(),
        if fig6d > 0.0 {
            2000.0 / (fig6d / 1e3)
        } else {
            0.0
        },
    );
    core_metrics(m, t);
}

fn core_metrics(m: &mut BTreeMap<String, f64>, t: &Tracer) {
    for model in yoco_sweep::DSE_WORKLOADS {
        m.insert(
            format!("core.evaluate_model_us.{model}"),
            span_median(t, &format!("core.evaluate_model.{model}")),
        );
    }
    m.insert("core.attention_us".into(), span_median(t, "core.attention"));
}

fn client_metrics(m: &mut BTreeMap<String, f64>, lat_ms: &[f64], check_us: f64) {
    m.insert("client.tail_ms".into(), tail(lat_ms));
    m.insert("client.tail_samples".into(), lat_ms.len() as f64);
    m.insert("client.check_us".into(), check_us);
}

fn finish_traced(
    ctx: &Ctx,
    workload: &str,
    t: &Tracer,
    metrics: BTreeMap<String, f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    out.problems
        .extend(crate::layers::violations(workload, &metrics));
    t.write(&ctx.spans_out)?;
    out.metrics = metrics;
    Ok(())
}

// ---------------------------------------------------------------------------
// warm-serve: one pinned server and one closed-loop client connection on
// the same CPU
// ---------------------------------------------------------------------------

/// Starts a `yoco-serve` pinned to `cpu`, logging into `dir`, over the
/// cache directory `cache`.
fn start(ctx: &Ctx, dir: &Path, cache: &Path, cpu: usize) -> Result<Server, String> {
    fresh_dir(dir)?;
    let args: Vec<String> = vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--quiet".into(),
        "--cache-dir".into(),
        cache.display().to_string(),
    ];
    Server::spawn(
        &ctx.bins.join("yoco-serve"),
        &args,
        cpu,
        &dir.join("serve.log"),
    )
}

/// The request shapes of the workload, and the cold lines that prime the
/// server's cache and memo during set-up.
struct Plan {
    /// `fig8`, `fig8-v2`, `fig9a`, then the `SUBSETS` subsets.
    shapes: Vec<Shape>,
    prime: Vec<(Vec<u8>, bool)>,
    /// Picks the next op's shape (an index into `shapes`).
    pick: Box<dyn FnMut() -> usize>,
}

/// The shapes before the subsets in `Plan::shapes`.
const FIXED: usize = 3;

fn grid(name: &str) -> Vec<Scenario> {
    grids::resolve(name).expect("registry grid")
}

fn frame_line(frame: &Response) -> Vec<u8> {
    serde_json::to_string(frame)
        .expect("frames serialize")
        .into_bytes()
}

/// Seeded distinct `SUBSET_CELLS`-cell subsets of `dse-full`, each with
/// its expected warm v2 reply built from the reference cell frames.
fn subsets(seed: u64, refs: &Refs) -> Result<Vec<Shape>, String> {
    let all = grid("dse-full");
    let Expect::Stream { cells, .. } = &refs.dse_warm else {
        return Err("dse-full reference is not a stream".into());
    };
    let by_id: HashMap<&str, &Vec<u8>> = cells
        .iter()
        .filter_map(|c| Some((cell_id(c)?, c)))
        .collect();
    let mut rng = Rng::new(seed.wrapping_add(0x5eed_0f5a_b5e7));
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    while out.len() < SUBSETS {
        let mut pick: Vec<usize> = Vec::new();
        while pick.len() < SUBSET_CELLS {
            let i = rng.below(all.len());
            if !pick.contains(&i) {
                pick.push(i);
            }
        }
        pick.sort_unstable();
        if !seen.insert(pick.clone()) {
            continue;
        }
        let id = format!("sub-{}", out.len());
        let scenarios: Vec<Scenario> = pick.iter().map(|&i| all[i].clone()).collect();
        let mut want = vec![frame_line(&Response::Accepted {
            id: id.clone(),
            position: 0,
        })];
        for s in &scenarios {
            let cell = by_id
                .get(s.id.as_str())
                .ok_or_else(|| format!("no reference cell for {}", s.id))?;
            want.push((*cell).clone());
        }
        want.push(frame_line(&Response::Done {
            id: id.clone(),
            hits: SUBSET_CELLS,
            misses: 0,
        }));
        out.push(Shape {
            label: "subset",
            line: eval_line(&id, scenarios, true, false),
            streamed: true,
            expect: Expect::stream(&want)?,
        });
    }
    Ok(out)
}

fn plan(seed: u64, refs: &Refs) -> Result<Plan, String> {
    let shape = |label, id: &str, g: &str, streamed, expect: &Expect| Shape {
        label,
        line: eval_line(id, grid(g), streamed, false),
        streamed,
        expect: expect.clone(),
    };
    let mut shapes = vec![
        shape("fig8", ids::FIG8_V1, "fig8", false, &refs.fig8_v1),
        shape("fig8-v2", ids::FIG8_V2, "fig8", true, &refs.fig8_v2),
        shape("fig9a", ids::FIG9A_V1, "fig9a", false, &refs.fig9a_v1),
    ];
    shapes.extend(subsets(seed, refs)?);
    let mut rng = Rng::new(seed);
    let mut next_subset = 0;
    Ok(Plan {
        prime: vec![
            (eval_line(ids::FIG8_V1, grid("fig8"), false, false), false),
            (eval_line(ids::FIG9A_V1, grid("fig9a"), false, false), false),
            (
                eval_line(ids::DSE_WARM, grid("dse-full"), true, false),
                true,
            ),
        ],
        shapes,
        // fig8 v1 : fig8 v2 : fig9a v1 : subset = 7 : 1 : 1 : 1. The fig8
        // shapes are 80% of ops, so the median op is a fig8 op well inside
        // its distribution, not on a shape boundary.
        pick: Box::new(move || match rng.below(10) {
            0..=6 => 0,
            7 => 1,
            8 => 2,
            _ => {
                next_subset = (next_subset + 1) % SUBSETS;
                FIXED + next_subset
            }
        }),
    })
}

/// Sends a priming line and checks that nothing failed.
fn prime(conn: &mut Conn, line: &[u8], streamed: bool) -> Result<(), String> {
    for frame in conn.exchange_lines(line, streamed)? {
        let ok = match decode::<Response>(&frame)? {
            Response::Eval(r) => r.is_ok(),
            Response::Cell(c) => c.error.is_none(),
            Response::Accepted { .. } | Response::Done { .. } => true,
            _ => false,
        };
        if !ok {
            return Err(format!(
                "priming failed: {}",
                String::from_utf8_lossy(&frame)
            ));
        }
    }
    Ok(())
}

/// Sends `shape` once and checks the reply.
fn verify(conn: &mut Conn, shape: &Shape) -> Result<(), String> {
    let (mut buf, mut frames) = (Vec::new(), Vec::new());
    conn.exchange(&shape.line, shape.streamed, &mut buf, &mut frames)?;
    if shape.expect.matches(&buf, &frames, &mut Vec::new()) {
        Ok(())
    } else {
        Err(format!(
            "{} reply differs from the reference: {}",
            shape.label,
            String::from_utf8_lossy(&buf[..buf.len().min(300)])
        ))
    }
}

/// The closed loop: ops back to back on one connection for `seconds`,
/// cut into `WINDOW_S` slices. Between slices the client measures the
/// host's speed on the CPU it shares with the idle server, and reads the
/// server's CPU time.
fn socket_phase(
    conn: &mut Conn,
    server: u32,
    plan: &mut Plan,
    seconds: f64,
    probe: &Probe,
    t: &mut Tracer,
) -> Result<Phase, String> {
    let span_names: Vec<String> = plan
        .shapes
        .iter()
        .map(|s| format!("op.{}", s.label))
        .collect();
    let (mut buf, mut frames, mut scratch) = (Vec::with_capacity(1 << 16), Vec::new(), Vec::new());
    let mut ph = Phase::default();
    let mut factor = probe.factor();
    // The open slice: its first op, its start, and the server's CPU then.
    let (mut first, mut opened, mut cpu0) = (0, Instant::now(), sys::proc_cpu_ns(server)?);
    let mut close = |ph: &mut Phase, first: usize, opened: Instant, cpu0: u64| {
        let wall_s = opened.elapsed().as_secs_f64();
        let cpu = sys::proc_cpu_ns(server)?;
        let after = probe.factor();
        ph.slices.push(Slice {
            wall_s,
            p50_ms: median(&ph.lat_ms[first..]),
            cpu_s: cpu.saturating_sub(cpu0) as f64 / 1e9,
            factor: (factor + after) / 2.0,
        });
        factor = after;
        Ok::<u64, String>(cpu)
    };
    let mut measured = 0.0;
    loop {
        let elapsed = measured + opened.elapsed().as_secs_f64();
        if elapsed >= seconds && ph.attempted > 0 {
            break;
        }
        if opened.elapsed().as_secs_f64() >= WINDOW_S {
            cpu0 = close(&mut ph, first, opened, cpu0)?;
            measured = ph.slices.iter().map(|s| s.wall_s).sum();
            first = ph.lat_ms.len();
            opened = Instant::now();
        }
        let k = (plan.pick)();
        let shape = &plan.shapes[k];
        t.enter(span_names[k].as_str(), Some(ph.attempted));
        let sent = Instant::now();
        let reply = conn.exchange(&shape.line, shape.streamed, &mut buf, &mut frames);
        let checked = Instant::now();
        t.enter("client.check", None);
        let ok = reply.is_ok() && shape.expect.matches(&buf, &frames, &mut scratch);
        t.exit();
        let done = Instant::now();
        t.exit();
        ph.attempted += 1;
        let lat_ms = done.duration_since(sent).as_secs_f64() * 1e3;
        ph.lat_ms.push(lat_ms);
        if t.on() {
            ph.per_op.push((
                k,
                lat_ms * 1e3,
                done.duration_since(checked).as_secs_f64() * 1e6,
            ));
        }
        if !ok {
            ph.failed += 1;
            ph.first_problem.get_or_insert_with(|| match &reply {
                Err(e) => format!("{}: {e}", shape.label),
                Ok(()) => format!(
                    "{} reply differs from the reference: {}",
                    shape.label,
                    String::from_utf8_lossy(&buf[..buf.len().min(300)])
                ),
            });
            if reply.is_err() {
                // The connection is gone: nothing further can be measured.
                break;
            }
        }
    }
    if ph.lat_ms.len() > first {
        close(&mut ph, first, opened, cpu0)?;
    }
    Ok(ph)
}

fn counter_delta(before: &MetricsReport, after: &MetricsReport, name: &str) -> f64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0)) as f64
}

/// The histogram of samples recorded between two scrapes.
fn hist_delta(before: &MetricsReport, after: &MetricsReport, name: &str) -> LatencyHistogram {
    let Some(a) = after.hist(name) else {
        return LatencyHistogram::default();
    };
    let mut snap: HistSnapshot = a.clone();
    if let Some(b) = before.hist(name) {
        snap.count -= b.count;
        snap.sum_us -= b.sum_us;
        for bucket in &mut snap.buckets {
            if let Some(old) = b.buckets.iter().find(|o| o.index == bucket.index) {
                bucket.count -= old.count;
            }
        }
        snap.buckets.retain(|bucket| bucket.count > 0);
    }
    LatencyHistogram::from_snapshot(&snap)
}

fn hist_q(h: &LatencyHistogram, q: f64) -> f64 {
    if h.count() == 0 {
        0.0
    } else {
        h.quantile_us(q) as f64
    }
}

/// One `warm-serve` round: a fresh server set up and primed, then one
/// closed-loop segment of `seconds` on it.
struct Round {
    /// Spawn to primed and verified, seconds at the reference host speed.
    setup_s: f64,
    phase: Phase,
    rss_mb: f64,
    /// `Metrics` scrapes around the segment.
    before: MetricsReport,
    after: MetricsReport,
    /// Cache entries (all, chip-model) the server wrote during the segment.
    written: (usize, usize),
}

fn round(
    ctx: &Ctx,
    plan: &mut Plan,
    cache: &Path,
    r: usize,
    cpu: usize,
    seconds: f64,
    t: &mut Tracer,
) -> Result<Round, String> {
    // Set-up: a restart over the prepared cache. Spawn, ready line, the
    // priming lines again (all cache hits now; they fill the memo), then
    // one verified warm pass over the fixed shapes and one subset.
    let probe = Probe::new();
    let factor = probe.factor();
    let began = Instant::now();
    let server = start(ctx, &ctx.run_dir.join(format!("round{r}")), cache, cpu)?;
    let mut conn = Conn::connect(&server.addr)?;
    for (line, streamed) in &plan.prime {
        prime(&mut conn, line, *streamed)?;
    }
    for shape in &plan.shapes[..=FIXED] {
        verify(&mut conn, shape)?;
    }
    let setup_s = began.elapsed().as_secs_f64() / ((factor + probe.factor()) / 2.0);

    let pid = server.pid();
    let since = SystemTime::now();
    let before = conn.metrics()?;
    let phase = socket_phase(&mut conn, pid, plan, seconds, &probe, t)?;
    let after = conn.metrics()?;
    let rss_mb = sys::proc_peak_rss_mb(pid)?;
    drop(conn);
    server.stop()?;
    Ok(Round {
        setup_s,
        phase,
        rss_mb,
        written: entries_written(cache, since)?,
        before,
        after,
    })
}

fn warm_serve(ctx: &Ctx) -> Result<Outcome, String> {
    let refs = Refs::load(&ctx.refs)?;
    let cpu = sys::pin_target();
    sys::pin_self(cpu)?;
    let mut plan = plan(ctx.seed, &refs)?;
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);

    // Preparation, untimed: one server computes the workload's cells into
    // the cache every round's server then starts over, so a round's set-up
    // is a restart over a populated cache. Writing the ~185 cache files
    // took between 10 and 140 ms of kernel time from one set-up to the
    // next in measurement (see NOTES.md); the restart repeats.
    let cache = ctx.run_dir.join("cache");
    let server = start(ctx, &ctx.run_dir.join("prepare"), &cache, cpu)?;
    let mut conn = Conn::connect(&server.addr)?;
    for (line, streamed) in &plan.prime {
        prime(&mut conn, line, *streamed)?;
    }
    drop(conn);
    server.stop()?;

    if !ctx.trace {
        let seconds = ctx.seconds / ROUNDS as f64;
        let rounds = (0..ROUNDS)
            .map(|r| round(ctx, &mut plan, &cache, r, cpu, seconds, &mut off))
            .collect::<Result<Vec<_>, _>>()?;
        let mut all = Phase::default();
        for rd in &rounds {
            rd.phase.absorb(&mut out);
            check_requests(&rd.before, &rd.after, rd.phase.attempted, &mut out);
            all.attempted += rd.phase.attempted;
            all.failed += rd.phase.failed;
            all.slices.extend_from_slice(&rd.phase.slices);
        }
        let setups: Vec<f64> = rounds.iter().map(|rd| rd.setup_s).collect();
        let rss_mb = rounds.iter().map(|rd| rd.rss_mb).fold(0.0, f64::max);
        end_to_end(&mut out, median(&setups), &all, rss_mb);
        return Ok(out);
    }

    let plain = round(ctx, &mut plan, &cache, 0, cpu, ctx.seconds / 2.0, &mut off)?;
    let mut t = Tracer::new(true);
    let traced = round(ctx, &mut plan, &cache, 1, cpu, ctx.seconds / 2.0, &mut t)?;
    for rd in [&plain, &traced] {
        rd.phase.absorb(&mut out);
        check_requests(&rd.before, &rd.after, rd.phase.attempted, &mut out);
    }

    let mut m = layer_map();
    overhead_metrics(&mut m, &plain.phase, &traced.phase);
    m.insert("cache.entries_written".into(), traced.written.0 as f64);
    m.insert("core.cells".into(), traced.written.1 as f64);
    server_metrics(&mut m, &traced.before, &traced.after);
    let checks: Vec<f64> = traced.phase.per_op.iter().map(|&(_, _, c)| c).collect();
    client_metrics(&mut m, &traced.phase.lat_ms, median(&checks));

    // In-process probes on the workload's own inputs, plus the serve
    // layer's cold path: a forced `dse-full` request through a runtime
    // without a cache (its socket workload was dropped; see NOTES.md).
    let fixed = &plan.shapes[..FIXED];
    let forced = eval_line(ids::DSE_FORCED, grid("dse-full"), true, true);
    let parse: Vec<(&str, &[u8])> = plan.shapes[..=FIXED]
        .iter()
        .filter(|s| s.label != "fig8-v2")
        .map(|s| (s.label, s.line.as_slice()))
        .chain([("dse-full", forced.as_slice())])
        .collect();
    let (Expect::Stream { cells, .. }, Expect::Line(reply)) = (&refs.fig8_v2, &refs.fig8_v1) else {
        return Err("fig8 references have the wrong shape".into());
    };
    probes::api(&mut t, &parse, &cells[0], reply)?;
    let rt = probes::runtime(Some(&cache));
    for s in fixed {
        probes::warm_inline(
            &mut t,
            &rt,
            s.label,
            &[(&s.line, &s.expect)],
            probes::MICRO_CALLS,
        )?;
    }
    // The subsets in workload order, once around: each call misses the
    // batch memo, as every subset op on the socket does.
    let subsets: Vec<(&[u8], &Expect)> = plan.shapes[FIXED..]
        .iter()
        .map(|s| (s.line.as_slice(), &s.expect))
        .collect();
    probes::warm_inline(&mut t, &rt, "subset", &subsets, SUBSETS)?;
    probes::cold_handle(&mut t, &probes::runtime(None), &forced, &refs.dse_forced, 3)?;
    m.insert(
        "serve.cold_handle_ms".into(),
        span_median(&t, "serve.cold_handle") / 1e3,
    );
    let mut inline_us: HashMap<&str, f64> = HashMap::new();
    for label in ["fig8", "fig8-v2", "fig9a", "subset"] {
        let us = span_median(&t, &format!("serve.warm_inline.{label}"));
        inline_us.insert(label, us);
        if label != "fig8-v2" {
            m.insert(format!("serve.warm_inline_us.{label}"), us);
        }
    }
    for (label, _) in &parse {
        m.insert(
            format!("api.parse_us.{label}"),
            span_median(&t, &format!("api.parse.{label}")),
        );
    }
    m.insert("api.frame_ser_us".into(), span_median(&t, "api.frame_ser"));
    m.insert(
        "api.response_decode_us".into(),
        span_median(&t, "api.response_decode"),
    );
    // Transport: what an op costs beyond the server's in-process handling
    // and the client's check (reactor, sockets, scheduling).
    let transport: Vec<f64> = traced
        .phase
        .per_op
        .iter()
        .map(|&(k, op_us, check_us)| op_us - inline_us[plan.shapes[k].label] - check_us)
        .collect();
    m.insert("reactor.transport_us".into(), median(&transport));
    finish_traced(ctx, "warm-serve", &t, m, &mut out)?;
    Ok(out)
}

/// The server must count exactly the eval requests the benchmark sent.
fn check_requests(before: &MetricsReport, after: &MetricsReport, sent: u64, out: &mut Outcome) {
    let counted = counter_delta(before, after, "requests_total") as u64;
    if counted != sent {
        out.problems.push(format!(
            "server counted {counted} requests, the benchmark sent {sent}"
        ));
    }
}

fn server_metrics(m: &mut BTreeMap<String, f64>, a: &MetricsReport, b: &MetricsReport) {
    let requests = counter_delta(a, b, "requests_total");
    m.insert(
        "serve.memo_served_share".into(),
        if requests > 0.0 {
            counter_delta(a, b, "memo_served_total") / requests
        } else {
            0.0
        },
    );
    m.insert(
        "serve.rejected".into(),
        counter_delta(a, b, "requests_rejected_total"),
    );
    m.insert("engine.cells".into(), counter_delta(a, b, "cells_total"));
    m.insert(
        "engine.hits".into(),
        counter_delta(a, b, "cache_hits_total"),
    );
    m.insert(
        "engine.misses".into(),
        counter_delta(a, b, "cache_misses_total"),
    );
    let eval = hist_delta(a, b, "eval_us");
    m.insert("engine.busy_s".into(), eval_sum_s(a, b));
    m.insert("serve.eval_us_p50".into(), hist_q(&eval, 0.5));
    m.insert(
        "serve.queue_wait_us_p50".into(),
        hist_q(&hist_delta(a, b, "queue_wait_us"), 0.5),
    );
    m.insert(
        "serve.flush_us_p50".into(),
        hist_q(&hist_delta(a, b, "flush_us"), 0.5),
    );
    let iter = hist_delta(a, b, "loop_iter_us");
    m.insert("reactor.loop_iter_us_p50".into(), hist_q(&iter, 0.5));
    m.insert("reactor.loop_iter_us_p99".into(), hist_q(&iter, 0.99));
    m.insert(
        "reactor.read_parse_us_p50".into(),
        hist_q(&hist_delta(a, b, "read_parse_us"), 0.5),
    );
}

fn eval_sum_s(a: &MetricsReport, b: &MetricsReport) -> f64 {
    let sum = |r: &MetricsReport| r.hist("eval_us").map_or(0, |h| h.sum_us);
    sum(b).saturating_sub(sum(a)) as f64 / 1e6
}

/// Regenerates `reference/` from the current program.
pub fn write_reference(ctx: &Ctx) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let op = sweep_run(
        ctx,
        &ctx.run_dir.join("all"),
        "all",
        None,
        &Probe::new(),
        &mut off,
    )?;
    if let Some(p) = op.problem {
        return Err(p);
    }
    let report = std::fs::read(ctx.run_dir.join("all/report.json")).map_err(|e| e.to_string())?;
    let dir = ctx.run_dir.join("serve");
    let server = start(ctx, &dir, &dir.join("cache"), sys::pin_target())?;
    let mut conn = Conn::connect(&server.addr)?;
    let forced = conn.exchange_lines(
        &eval_line(ids::DSE_FORCED, grid("dse-full"), true, true),
        true,
    )?;
    let mut reply = |id: &str, g: &str, streamed: bool| -> Result<Expect, String> {
        let line = eval_line(id, grid(g), streamed, false);
        prime(&mut conn, &line, streamed)?;
        let warm = conn.exchange_lines(&line, streamed)?;
        if streamed {
            Expect::stream(&warm)
        } else {
            Ok(Expect::Line(warm[0].clone()))
        }
    };
    let refs = Refs {
        all_digest: digest_line(&report),
        fig8_v1: reply(ids::FIG8_V1, "fig8", false)?,
        fig8_v2: reply(ids::FIG8_V2, "fig8", true)?,
        fig9a_v1: reply(ids::FIG9A_V1, "fig9a", false)?,
        dse_warm: reply(ids::DSE_WARM, "dse-full", true)?,
        dse_forced: Expect::stream(&forced)?,
    };
    drop(conn);
    server.stop()?;
    refs.write(&ctx.refs)?;
    eprintln!(
        "wrote {} reference files to {}",
        crate::refs::FILES.len(),
        ctx.refs.display()
    );
    Ok(())
}
