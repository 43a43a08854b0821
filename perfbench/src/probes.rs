//! The traced run's in-process probes: timed calls the benchmark makes
//! into each layer's public functions, on the inputs its workload uses.
//! Every call is one span; the workload reduces spans to per-layer numbers.

use crate::trace::Tracer;
use crate::wire::{decode, Expect};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;
use yoco::{AttentionPipeline, YocoChip, YocoConfig};
use yoco_arch::accelerator::Accelerator;
use yoco_circuit::variation::MismatchField;
use yoco_circuit::{ArrayGeometry, DetailedArray, MemoryKind, NoiseModel};
use yoco_sweep::api::{Request, Response};
use yoco_sweep::serve::FrameSink;
use yoco_sweep::{
    figures, grids, studies, Engine, ResultCache, Runtime, ServeConfig, StudyId, WorkloadSpec,
    DSE_WORKLOADS,
};

/// Monte-Carlo instances timed per circuit probe.
const CIRCUIT_INSTANCES: u64 = 16;
/// Calls per micro-probe (parse, serialize, chip roll-up).
pub const MICRO_CALLS: usize = 64;

/// `MismatchField::sample`, `DetailedArray::with_seeded_noise`, and
/// `compute_vmm_seeded` on fig6d's geometry, weights, and inputs.
pub fn circuit(t: &mut Tracer) -> Result<(), String> {
    let geom = ArrayGeometry::yoco_default();
    let weights: Vec<Vec<u32>> = (0..128)
        .map(|r| {
            (0..32)
                .map(|c| ((r * 11 + c * 3 + 7) % 256) as u32)
                .collect()
        })
        .collect();
    let inputs: Vec<u32> = (0..128).map(|r| ((r * 97 + 31) % 256) as u32).collect();
    let noise = NoiseModel::tt_corner();
    for seed in 0..CIRCUIT_INSTANCES {
        let field = t.span("circuit.mismatch_sample", || {
            MismatchField::sample(geom.rows(), geom.cols(), noise.cap_mismatch_sigma, seed)
        });
        std::hint::black_box(field);
        let inst = t
            .span("circuit.array_build", || {
                DetailedArray::with_seeded_noise(geom, &weights, MemoryKind::Sram, noise, seed)
            })
            .map_err(|e| format!("array build: {e}"))?;
        let out = t
            .span("circuit.vmm", || {
                inst.compute_vmm_seeded(&inputs, seed ^ 0xABCD)
            })
            .map_err(|e| format!("vmm: {e}"))?;
        if out.cb_voltages.is_empty() {
            return Err("vmm produced no CB voltages".into());
        }
    }
    Ok(())
}

/// `studies::run` for every study, one span each (`studies.<name>`).
pub fn studies(t: &mut Tracer) -> Result<(), String> {
    for study in StudyId::ALL {
        t.span(&format!("studies.{}", study.name()), || studies::run(study))
            .map_err(|e| format!("study {}: {e}", study.name()))?;
    }
    Ok(())
}

/// Stand-in training (`fig6f_standins(2025)`) and analog evaluation.
pub fn nn(t: &mut Tracer) -> Result<(), String> {
    let standins = t
        .span("nn.standin_train", || {
            yoco_nn::standins::fig6f_standins(2025)
        })
        .map_err(|e| format!("stand-in training: {e}"))?;
    for s in &standins {
        let acc = t.span("nn.analog_eval", || s.accuracy_analog(7));
        if !(0.0..=1.0).contains(&acc) {
            return Err(format!("{}: analog accuracy {acc}", s.name));
        }
    }
    Ok(())
}

/// What the engine probe saw.
pub struct EngineRun {
    /// Σ per-worker busy time, seconds.
    pub busy_s: f64,
    /// 1 − busy ÷ (workers × batch wall).
    pub idle_share: f64,
    /// The report's canonical JSON, checked against the cold-figures digest.
    pub canonical: String,
}

/// `Engine::run_with` over the `all` grid on an empty cache, with the
/// production policy (one worker per core). Each worker thread runs its
/// cells back to back, so the gaps between a thread's completions are
/// its per-cell evaluation times.
pub fn engine(t: &mut Tracer, cache_dir: &Path) -> Result<EngineRun, String> {
    let scenarios = grids::resolve("all").map_err(|e| e.to_string())?;
    let engine = Engine::cached().with_cache(ResultCache::at(cache_dir));
    let workers = yoco_sweep::executor::default_jobs()
        .min(scenarios.len())
        .max(1);
    let done: Mutex<Vec<(std::thread::ThreadId, Instant)>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let report = t.span("engine.run", || {
        engine.run_with(&scenarios, |_, _| {
            done.lock()
                .expect("a worker panicked while recording")
                .push((std::thread::current().id(), Instant::now()));
        })
    });
    let wall = start.elapsed().as_secs_f64();
    // The last completion on each worker thread ends that thread's busy time.
    let mut last: HashMap<std::thread::ThreadId, Instant> = HashMap::new();
    let done = done
        .into_inner()
        .expect("a worker panicked while recording");
    for (id, at) in done {
        let slot = last.entry(id).or_insert(at);
        *slot = (*slot).max(at);
    }
    let busy_s: f64 = last
        .values()
        .map(|at| at.duration_since(start).as_secs_f64())
        .sum();
    if !report.errors().is_empty() {
        return Err(format!("engine run failed cells: {:?}", report.errors()));
    }
    Ok(EngineRun {
        busy_s,
        idle_share: 1.0 - busy_s / (workers as f64 * wall),
        canonical: report.canonical_json(),
    })
}

/// `YocoChip::evaluate_model` on the DSE workload pair at the paper
/// design, and `AttentionPipeline::simulate` on fig10's first model.
pub fn core(t: &mut Tracer) -> Result<(), String> {
    let chip = YocoChip::new(YocoConfig::paper_default());
    for model in DSE_WORKLOADS {
        let workloads = WorkloadSpec::Zoo {
            model: model.to_owned(),
        }
        .resolve()
        .map_err(|e| e.to_string())?;
        for _ in 0..MICRO_CALLS / 4 {
            let r = t.span(&format!("core.evaluate_model.{model}"), || {
                chip.evaluate_model(model, &workloads)
            });
            std::hint::black_box(r);
        }
    }
    let pipeline = AttentionPipeline::new(YocoConfig::paper_default());
    let (_, dims) = figures::fig10_dims()[0];
    for _ in 0..MICRO_CALLS {
        let r = t.span("core.attention", || pipeline.simulate(&dims));
        std::hint::black_box(r);
    }
    Ok(())
}

/// `from_str::<Request>` per request shape, `to_string(&Response)` of a
/// `Cell` frame, and `from_str` of a buffered reply.
pub fn api(
    t: &mut Tracer,
    shapes: &[(&str, &[u8])],
    cell_frame: &[u8],
    reply: &[u8],
) -> Result<(), String> {
    for (label, line) in shapes {
        let text = std::str::from_utf8(line)
            .map_err(|e| e.to_string())?
            .trim_end();
        for _ in 0..MICRO_CALLS {
            t.span(&format!("api.parse.{label}"), || {
                serde_json::from_str::<Request>(text)
            })
            .map_err(|e| format!("parse {label}: {e}"))?;
        }
    }
    let frame: Response = decode(cell_frame)?;
    for _ in 0..MICRO_CALLS {
        let s = t
            .span("api.frame_ser", || serde_json::to_string(&frame))
            .map_err(|e| e.to_string())?;
        std::hint::black_box(s);
    }
    let text = std::str::from_utf8(reply).map_err(|e| e.to_string())?;
    for _ in 0..MICRO_CALLS {
        t.span("api.response_decode", || {
            serde_json::from_str::<Response>(text)
        })
        .map_err(|e| format!("decode reply: {e}"))?;
    }
    Ok(())
}

/// A frame sink that keeps the raw reply bytes, as the reactor's does.
#[derive(Default)]
struct RawSink {
    lines: Vec<Vec<u8>>,
}

impl FrameSink for RawSink {
    fn send(&mut self, frame: &Response) -> std::io::Result<()> {
        let text =
            serde_json::to_string(frame).map_err(|e| std::io::Error::other(e.to_string()))?;
        self.lines.push(text.into_bytes());
        Ok(())
    }

    fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        self.lines.push(line.as_bytes().to_vec());
        Ok(())
    }
}

/// An in-process runtime configured like the workload's server: over its
/// cache directory, or without a cache.
pub fn runtime(cache_dir: Option<&Path>) -> Runtime {
    let engine = match cache_dir {
        Some(dir) => Engine::cached().with_cache(ResultCache::at(dir)),
        None => Engine::cached().no_cache(),
    };
    Runtime::new(engine, ServeConfig::default())
}

/// `Runtime::try_handle_warm` on `lines` in order, cycling, `calls`
/// times, after one untimed `handle_line` per line has filled the
/// runtime's memos; every reply must match its expectation. One line
/// repeated times the batch-memo hit path a repeated shape takes. More
/// distinct lines than the batch memo's 256 entries, cycled in order, miss
/// it on every call (FIFO eviction), so those calls time the per-cell
/// lookup and assembly a workload's subset ops run.
pub fn warm_inline(
    t: &mut Tracer,
    rt: &Runtime,
    label: &str,
    lines: &[(&[u8], &Expect)],
    calls: usize,
) -> Result<(), String> {
    let text = |line: &[u8]| -> Result<String, String> {
        Ok(std::str::from_utf8(line)
            .map_err(|e| e.to_string())?
            .trim_end()
            .to_owned())
    };
    let texts = lines
        .iter()
        .map(|(line, _)| text(line))
        .collect::<Result<Vec<_>, _>>()?;
    for line in &texts {
        rt.handle_line(line, &mut RawSink::default())
            .map_err(|e| e.to_string())?;
    }
    let span = format!("serve.warm_inline.{label}");
    for i in 0..calls {
        let k = i % lines.len();
        let mut sink = RawSink::default();
        let served = t.span(&span, || {
            rt.try_handle_warm(&texts[k], Instant::now(), &mut sink)
        });
        match served {
            Some(Ok(_)) => {}
            Some(Err(e)) => return Err(format!("warm inline {label}: {e}")),
            None => return Err(format!("warm inline {label}: not served from the memo")),
        }
        check_lines(label, &sink.lines, lines[k].1)?;
    }
    Ok(())
}

/// `Runtime::handle_line` on a forced request, `calls` times.
pub fn cold_handle(
    t: &mut Tracer,
    rt: &Runtime,
    line: &[u8],
    expect: &Expect,
    calls: usize,
) -> Result<(), String> {
    let text = std::str::from_utf8(line)
        .map_err(|e| e.to_string())?
        .trim_end();
    for _ in 0..calls {
        let mut sink = RawSink::default();
        t.span("serve.cold_handle", || rt.handle_line(text, &mut sink))
            .map_err(|e| format!("cold handle: {e}"))?;
        check_lines("cold handle", &sink.lines, expect)?;
    }
    Ok(())
}

fn check_lines(label: &str, lines: &[Vec<u8>], expect: &Expect) -> Result<(), String> {
    let mut buf = Vec::new();
    let mut frames = Vec::new();
    for l in lines {
        let start = buf.len();
        buf.extend_from_slice(l);
        frames.push((start, buf.len()));
    }
    if expect.matches(&buf, &frames, &mut Vec::new()) {
        Ok(())
    } else {
        Err(format!(
            "{label}: in-process reply differs from the reference"
        ))
    }
}

/// `ResultCache::store` then `lookup` for every `dse-full` cell, on a
/// cache directory of the benchmark's own.
pub fn cache(t: &mut Tracer, dir: &Path) -> Result<(), String> {
    let scenarios = grids::resolve("dse-full").map_err(|e| e.to_string())?;
    let report = Engine::ephemeral().run(&scenarios);
    let cache = ResultCache::at(dir);
    for cell in &report.cells {
        let kind = cell.scenario.kind.normalized();
        let payload = cell
            .metrics
            .as_ref()
            .ok_or_else(|| format!("{} failed", cell.scenario.id))?
            .cache_value();
        t.span("cache.store", || cache.store(&cell.key, &kind, &payload))
            .map_err(|e| e.to_string())?;
    }
    for cell in &report.cells {
        let kind = cell.scenario.kind.normalized();
        let hit = t.span("cache.lookup", || cache.lookup(&cell.key, &kind));
        if hit.is_none() {
            return Err(format!("cache lookup missed {}", cell.scenario.id));
        }
    }
    Ok(())
}
