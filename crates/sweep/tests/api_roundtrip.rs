//! Property tests for the API layer: wire envelopes and errors survive
//! serde round trips for arbitrary well-formed inputs, the typed decode
//! agrees with the `Value` path on valid and mutated lines, the reactor's
//! warm path answers a line exactly as the full dispatch does or not at
//! all, and shard selection partitions any grid.

use proptest::prelude::*;
use serde::{Deserialize, Reader, Serialize, Value};
use std::io;
use std::sync::OnceLock;
use std::time::Instant;
use yoco_sweep::api::{
    CellOutcome, CellStatus, EvalRequest, EvalResponse, Request, Response, Shard, StatusReport,
};
use yoco_sweep::serve::{FrameSink, Served};
use yoco_sweep::{
    grids, AcceleratorKind, DesignPoint, Engine, ResultCache, Runtime, Scenario, ServeConfig,
    StudyId, SweepError, WorkloadSpec,
};

/// Lowercase-ASCII identifier-ish strings.
fn string_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(97u8..123, 0..12)
        .prop_map(|bytes| String::from_utf8(bytes).expect("ascii"))
}

/// Any of the four accelerators.
fn accelerator_strategy() -> impl Strategy<Value = AcceleratorKind> {
    (0usize..AcceleratorKind::ALL.len()).prop_map(|i| AcceleratorKind::ALL[i])
}

/// Design points mixing paper defaults and overrides.
fn design_strategy() -> impl Strategy<Value = DesignPoint> {
    (0u8..3, 1usize..16, 0u8..2).prop_map(|(tile_mode, tiles, act)| DesignPoint {
        tiles: match tile_mode {
            0 => None,
            _ => Some(tiles),
        },
        activity: if act == 1 { Some(0.25) } else { None },
        ..Default::default()
    })
}

/// Scenarios across all three kinds (GEMM / attention / study).
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        0u8..3,
        accelerator_strategy(),
        design_strategy(),
        (1u64..512, 1u64..512, 1u64..512),
        0usize..StudyId::ALL.len(),
        string_strategy(),
    )
        .prop_map(|(kind, acc, design, (m, k, n), study, name)| match kind {
            0 => Scenario::gemm(
                acc,
                design,
                WorkloadSpec::Gemm {
                    name: format!("g-{name}"),
                    m,
                    k,
                    n,
                    kind: yoco_arch::workload::LayerKind::Linear,
                },
            ),
            1 => Scenario::attention(
                format!("t-{name}"),
                yoco::pipeline::AttentionDims {
                    seq: (m as usize).max(1),
                    d_model: 64 * ((k as usize % 8) + 1),
                    heads: 4,
                },
                design,
            ),
            _ => Scenario::study(StudyId::ALL[study]),
        })
}

/// Every `SweepError` variant with arbitrary payload strings.
fn error_strategy() -> impl Strategy<Value = SweepError> {
    (0u8..7, string_strategy(), string_strategy(), 0u64..1 << 32).prop_map(|(variant, a, b, ms)| {
        match variant {
            0 => SweepError::invalid(a, b),
            1 => SweepError::workload(a, b),
            2 => SweepError::evaluation(a, b),
            3 => SweepError::cache_io(a, b),
            4 => SweepError::schema(a, b),
            5 => SweepError::Busy { retry_after_ms: ms },
            _ => SweepError::UnknownGrid { name: a, known: b },
        }
    })
}

/// Arbitrary streamed cell outcomes (`error` set exactly for `Failed`,
/// mirroring the engine's invariant).
fn cell_outcome_strategy() -> impl Strategy<Value = CellOutcome> {
    (
        string_strategy(),
        string_strategy(),
        0u8..3,
        error_strategy(),
    )
        .prop_map(|(id, key, status, error)| {
            let status = match status {
                0 => CellStatus::Hit,
                1 => CellStatus::Computed,
                _ => CellStatus::Failed,
            };
            CellOutcome {
                id,
                key,
                error: (status == CellStatus::Failed).then_some(error),
                status,
                metrics: None,
            }
        })
}

/// Arbitrary status reports: every role the wire can carry, counter
/// values across the u64 range.
fn status_report_strategy() -> impl Strategy<Value = StatusReport> {
    (
        0u8..3,
        (0usize..64, 0usize..1 << 10, 0usize..1 << 10, 0usize..256),
        prop::collection::vec(0u64..1 << 48, 9),
    )
        .prop_map(
            |(role, (workers, occupancy, queue_depth, jobs), counters)| StatusReport {
                role: ["serve", "coordinator", "inline"][role as usize].into(),
                workers,
                occupancy,
                queue_depth,
                jobs,
                served: counters[0],
                cells: counters[1],
                hits: counters[2],
                misses: counters[3],
                rejected: counters[4],
                service_estimate_ms: counters[5],
                busy_ms: counters[6],
                fd_sheds: counters[7],
                slow_reader_disconnects: counters[8],
            },
        )
}

/// Every protocol-v2 frame variant (the v1 `Eval` variant is exercised
/// by `eval_responses_round_trip` below).
fn v2_frame_strategy() -> impl Strategy<Value = Response> {
    (
        0u8..8,
        string_strategy(),
        cell_outcome_strategy(),
        (0usize..1 << 16, 0usize..1 << 16, 0u64..1 << 32),
        error_strategy(),
        status_report_strategy(),
    )
        .prop_map(
            |(variant, id, cell, (a, b, ms), error, status)| match variant {
                0 => Response::Accepted { id, position: a },
                1 => Response::Cell(cell),
                2 => Response::Done {
                    id,
                    hits: a,
                    misses: b,
                },
                3 => Response::Busy {
                    id,
                    retry_after_ms: ms,
                },
                4 => Response::Pong,
                5 => Response::Bye,
                6 => Response::Status(status),
                _ => Response::Error(error),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn eval_requests_round_trip(
        id in string_strategy(),
        scenarios in prop::collection::vec(scenario_strategy(), 0..8),
        force in 0u8..2,
        deadline_ms in prop::option::of(0u64..120_000),
    ) {
        let mut request = EvalRequest::new(id, scenarios);
        request.force = force == 1;
        request.deadline_ms = deadline_ms;
        let text = serde_json::to_string(&request).expect("serializes");
        let back: EvalRequest = serde_json::from_str(&text).expect("parses");
        prop_assert_eq!(&request, &back);

        // A pre-deadline request line (no `deadline_ms` key at all)
        // still parses, defaulting to no deadline.
        let legacy = text.replacen(",\"deadline_ms\":null", "", 1);
        let back: EvalRequest = serde_json::from_str(&legacy).expect("legacy line parses");
        if request.deadline_ms.is_none() {
            prop_assert_eq!(&request, &back);
        }

        // And inside the envelope.
        let envelope = Request::Eval(request);
        let text = serde_json::to_string(&envelope).expect("serializes");
        let back: Request = serde_json::from_str(&text).expect("parses");
        prop_assert_eq!(envelope, back);
    }

    #[test]
    fn sweep_errors_round_trip(error in error_strategy()) {
        let text = serde_json::to_string(&error).expect("serializes");
        let back: SweepError = serde_json::from_str(&text).expect("parses");
        prop_assert_eq!(&error, &back);
        // Display never panics and mentions no debug formatting.
        prop_assert!(!error.to_string().is_empty());
    }

    #[test]
    fn v2_frames_round_trip(frame in v2_frame_strategy()) {
        let text = serde_json::to_string(&frame).expect("serializes");
        let back: Response = serde_json::from_str(&text).expect("parses");
        prop_assert_eq!(frame, back);
    }

    #[test]
    fn streaming_requests_round_trip_and_keep_their_version(
        id in string_strategy(),
        scenarios in prop::collection::vec(scenario_strategy(), 0..8),
    ) {
        let request = EvalRequest::streaming(id, scenarios);
        prop_assert_eq!(request.version, yoco_sweep::api::API_V2);
        let text = serde_json::to_string(&request).expect("serializes");
        let back: EvalRequest = serde_json::from_str(&text).expect("parses");
        prop_assert_eq!(request, back);
    }

    #[test]
    fn status_reports_round_trip_bare_and_framed(report in status_report_strategy()) {
        let text = serde_json::to_string(&report).expect("serializes");
        let back: StatusReport = serde_json::from_str(&text).expect("parses");
        prop_assert_eq!(&report, &back);
        // …and wrapped in the response frame the server actually sends.
        let frame = Response::Status(report);
        let text = serde_json::to_string(&frame).expect("serializes");
        let back: Response = serde_json::from_str(&text).expect("parses");
        prop_assert_eq!(frame, back);
    }

    #[test]
    fn worker_dispatch_sub_requests_round_trip(
        id in string_strategy(),
        round in 0usize..8,
        shard in 0usize..8,
        scenarios in prop::collection::vec(scenario_strategy(), 1..6),
        force in 0u8..2,
    ) {
        // The coordinator's sub-request framing: a streamed request with
        // a `<client-id>#r<round>w<shard>` id and the client's force
        // flag. It must survive the wire like any client request —
        // workers cannot tell a coordinator from an ordinary client.
        let mut sub = EvalRequest::streaming(format!("{id}#r{round}w{shard}"), scenarios);
        sub.force = force == 1;
        prop_assert_eq!(sub.version, yoco_sweep::api::API_V2);
        let envelope = Request::Eval(sub);
        let text = serde_json::to_string(&envelope).expect("serializes");
        let back: Request = serde_json::from_str(&text).expect("parses");
        prop_assert_eq!(envelope, back);
    }

    #[test]
    fn shards_partition_any_grid(
        scenarios in prop::collection::vec(scenario_strategy(), 0..40),
        count in 1usize..9,
    ) {
        let mut total = 0usize;
        for index in 1..=count {
            let shard = Shard { index, count };
            let part = shard.select(&scenarios);
            prop_assert!(part.len() <= scenarios.len().div_ceil(count));
            for s in &part {
                prop_assert!(scenarios.contains(s));
            }
            total += part.len();
        }
        prop_assert_eq!(total, scenarios.len());
    }
}

proptest! {
    // Responses run real evaluations; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn eval_responses_round_trip(
        id in string_strategy(),
        picks in prop::collection::vec(0usize..4, 1..4),
    ) {
        // Cheap studies only — the property under test is serialization,
        // not evaluation speed.
        let cheap = [StudyId::Fig9a, StudyId::Table2, StudyId::Fig7, StudyId::Table1];
        let scenarios: Vec<Scenario> =
            picks.iter().map(|&i| Scenario::study(cheap[i])).collect();
        let report = Engine::ephemeral().run(&scenarios);
        let response = EvalResponse::from_report(id, &report);
        prop_assert!(response.is_ok());
        let text = serde_json::to_string(&response).expect("serializes");
        let back: EvalResponse = serde_json::from_str(&text).expect("parses");
        prop_assert_eq!(response, back);
    }
}

#[test]
fn status_request_is_a_stable_control_line() {
    // The probe the cluster coordinator's worker selection sends.
    assert_eq!(
        serde_json::to_string(&Request::Status).unwrap(),
        "\"Status\""
    );
    let back: Request = serde_json::from_str("\"Status\"").unwrap();
    assert_eq!(back, Request::Status);
}

#[test]
fn refusals_and_failed_cells_round_trip() {
    let refusal = EvalResponse::refusal("r-9", SweepError::schema("request envelope", "bad"));
    let text = serde_json::to_string(&refusal).unwrap();
    let back: EvalResponse = serde_json::from_str(&text).unwrap();
    assert_eq!(refusal, back);
    assert!(!back.is_ok());

    let failed = CellOutcome {
        id: "yoco/nope".into(),
        key: "0123456789abcdef".into(),
        status: CellStatus::Failed,
        metrics: None,
        error: Some(SweepError::workload("nope", "unknown")),
    };
    let text = serde_json::to_string(&failed).unwrap();
    let back: CellOutcome = serde_json::from_str(&text).unwrap();
    assert_eq!(failed, back);
}

/// Any client line: an eval batch of either version or a control line.
fn request_strategy() -> impl Strategy<Value = Request> {
    (
        0u8..6,
        string_strategy(),
        prop::collection::vec(scenario_strategy(), 0..6),
        prop::option::of(0u64..120_000),
    )
        .prop_map(|(variant, id, scenarios, deadline_ms)| match variant {
            0 => Request::Eval(EvalRequest::new(id, scenarios)),
            1 => {
                let mut request = EvalRequest::streaming(id, scenarios);
                request.deadline_ms = deadline_ms;
                request.force = true;
                Request::Eval(request)
            }
            2 => Request::Ping,
            3 => Request::Status,
            4 => Request::Metrics,
            _ => Request::Shutdown,
        })
}

/// Cells that evaluate in milliseconds: a GEMM, an attention and four
/// study cells.
fn cheap_cells() -> Vec<Scenario> {
    let mut scenarios = vec![
        Scenario::gemm(
            AcceleratorKind::Yoco,
            DesignPoint::default(),
            WorkloadSpec::Zoo {
                model: "resnet18".into(),
            },
        ),
        grids::resolve("fig10").expect("grid")[0].clone(),
    ];
    for study in [
        StudyId::Fig9a,
        StudyId::Table2,
        StudyId::Fig7,
        StudyId::Table1,
    ] {
        scenarios.push(Scenario::study(study));
    }
    scenarios
}

/// Buffered v1 replies with real metrics payloads: one engine run over
/// [`cheap_cells`], cut into every prefix.
fn real_replies() -> &'static [Response] {
    static REPLIES: OnceLock<Vec<Response>> = OnceLock::new();
    REPLIES.get_or_init(|| {
        let scenarios = cheap_cells();
        let report = Engine::ephemeral().run(&scenarios);
        let full = EvalResponse::from_report("real", &report);
        assert!(full.is_ok(), "cheap cells evaluate");
        (1..=full.cells.len())
            .map(|n| {
                Response::Eval(EvalResponse {
                    cells: full.cells[..n].to_vec(),
                    ..full.clone()
                })
            })
            .collect()
    })
}

/// One edit of a valid line: `(kind, a, b)`, where `a` and `b` pick the
/// place and the variant of the edit (see [`mutate`]).
fn mutation_strategy() -> impl Strategy<Value = (u8, usize, usize)> {
    (0u8..8, 0usize..1 << 16, 0usize..1 << 16)
}

/// A JSON tree that keeps repeated keys, which a `Value` map cannot.
#[derive(Clone)]
enum Node {
    Leaf(String),
    Array(Vec<Node>),
    Object(Vec<(String, Node)>),
}

type Members = Vec<(String, Node)>;

/// A one-key object named like a variant: an externally tagged enum.
fn is_tag(m: &Members) -> bool {
    m.len() == 1 && m[0].0.starts_with(|c: char| c.is_ascii_uppercase())
}

/// Any other non-empty object: a struct.
fn is_struct(m: &Members) -> bool {
    !m.is_empty() && !is_tag(m)
}

impl Node {
    fn of(v: &Value) -> Self {
        match v {
            Value::Array(items) => Node::Array(items.iter().map(Node::of).collect()),
            Value::Object(map) => {
                Node::Object(map.iter().map(|(k, v)| (k.clone(), Node::of(v))).collect())
            }
            leaf => Node::Leaf(serde_json::to_string(leaf).expect("leaf serializes")),
        }
    }

    /// Writes the tree with `ws` after every opening bracket, comma and
    /// colon and before every closing bracket.
    fn write(&self, ws: &str, out: &mut String) {
        match self {
            Node::Leaf(text) => out.push_str(text),
            Node::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    out.push_str(ws);
                    item.write(ws, out);
                }
                out.push_str(ws);
                out.push(']');
            }
            Node::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    out.push_str(ws);
                    out.push_str(&serde_json::to_string(k).expect("key serializes"));
                    out.push_str(ws);
                    out.push(':');
                    out.push_str(ws);
                    v.write(ws, out);
                }
                out.push_str(ws);
                out.push('}');
            }
        }
    }

    /// How many objects `pick` selects.
    fn count(&self, pick: fn(&Members) -> bool) -> usize {
        match self {
            Node::Leaf(_) => 0,
            Node::Array(items) => items.iter().map(|n| n.count(pick)).sum(),
            Node::Object(m) => {
                usize::from(pick(m)) + m.iter().map(|(_, n)| n.count(pick)).sum::<usize>()
            }
        }
    }

    /// The `k`-th object (in document order) that `pick` selects.
    fn nth(&mut self, pick: fn(&Members) -> bool, k: &mut usize) -> Option<&mut Members> {
        match self {
            Node::Leaf(_) => None,
            Node::Array(items) => items.iter_mut().find_map(|n| n.nth(pick, k)),
            Node::Object(m) => {
                if pick(m) {
                    if *k == 0 {
                        return Some(m);
                    }
                    *k -= 1;
                }
                m.iter_mut().find_map(|(_, n)| n.nth(pick, k))
            }
        }
    }
}

/// Values an edit inserts: every JSON kind, one string with an escape,
/// nested containers and a repeated key.
const EXTRA: [&str; 7] = [
    "null",
    "true",
    "-2.5e3",
    "7",
    r#""s\u00e9x""#,
    r#"[1,{"a":[]}]"#,
    r#"{"k":"v","k":[false]}"#,
];
/// Variant names an extra enum-object key takes (or the object's own).
const TAGS: [&str; 6] = ["Eval", "Ping", "Cell", "Gemm", "Study", "Yoco"];
const SPACE: [&str; 4] = [" ", "\n", "\t", "\r\n  "];
const FLIPS: &[u8] = b"{}[]:,\"\\ 0123456789-+.eEnultrfasxI";

/// Applies one edit to a valid line. The flag is whether the edit keeps
/// the line in the typed path's reach: reordered, repeated (same value)
/// or unknown struct keys, and whitespace between tokens, all of which
/// the typed path must read exactly as the `Value` path does. Extra keys
/// in enum objects, byte flips, truncations and deletions may also be
/// refused by the typed path, as long as `from_str` still answers as
/// the `Value` path does.
fn mutate(line: &str, (kind, a, b): (u8, usize, usize)) -> (String, bool) {
    let mut tree = Node::of(&serde_json::parse_value(line).expect("valid line"));
    let mut edit = |pick: fn(&Members) -> bool, f: &mut dyn FnMut(&mut Members)| {
        let n = tree.count(pick);
        if n > 0 {
            f(tree.nth(pick, &mut (a % n)).expect("counted object"));
        }
    };
    let leaf = Node::Leaf(EXTRA[b % EXTRA.len()].to_owned());
    match kind {
        0 => edit(is_struct, &mut |m| {
            let n = m.len();
            m.rotate_left(b % n)
        }),
        1 => edit(is_struct, &mut |m| {
            let twin = m[b % m.len()].clone();
            m.insert(a % (m.len() + 1), twin)
        }),
        2 => edit(is_struct, &mut |m| {
            m.insert(a % (m.len() + 1), ("zz_extra".into(), leaf.clone()))
        }),
        3 => edit(is_tag, &mut |m| {
            let tag = match b % 3 {
                0 => m[0].0.clone(),
                _ => TAGS[b % TAGS.len()].to_owned(),
            };
            let value = match a % 3 {
                0 => m[0].1.clone(),
                _ => leaf.clone(),
            };
            m.insert(a % 2, (tag, value))
        }),
        4 => {
            let mut out = String::from(SPACE[b % SPACE.len()]);
            tree.write(SPACE[a % SPACE.len()], &mut out);
            return (out, true);
        }
        _ => {
            let mut chars: Vec<char> = line.chars().collect();
            let at = a % chars.len();
            match kind {
                5 => chars[at] = char::from(FLIPS[b % FLIPS.len()]),
                6 => chars.truncate(at),
                _ => {
                    chars.remove(at);
                }
            }
            return (chars.into_iter().collect(), false);
        }
    }
    let mut out = String::new();
    tree.write("", &mut out);
    (out, kind != 3)
}

/// The reference: text → `Value` → `T`, re-serialized so `null` floats
/// (read as NaN) compare.
fn value_path<T: Serialize + Deserialize>(line: &str) -> Result<String, String> {
    let tree = serde_json::parse_value(line).map_err(|e| e.to_string())?;
    let value: T = serde_json::from_value(&tree).map_err(|e| e.to_string())?;
    Ok(serde_json::to_string(&value).expect("serializes"))
}

/// The typed path alone, with no fallback: `None` where it refuses.
fn typed_path<T: Serialize + Deserialize>(line: &str) -> Option<String> {
    let mut r = Reader::new(line);
    r.skip_ws();
    let value = T::from_json(&mut r).ok()?;
    r.end().ok()?;
    Some(serde_json::to_string(&value).expect("serializes"))
}

/// What callers see: `serde_json::from_str`.
fn from_str_path<T: Serialize + Deserialize>(line: &str) -> Result<String, String> {
    let value: T = serde_json::from_str(line).map_err(|e| e.to_string())?;
    Ok(serde_json::to_string(&value).expect("serializes"))
}

/// Checks `value`'s line and each mutation of it on both paths.
fn agree<T: Serialize + Deserialize>(
    value: &T,
    mutations: &[(u8, usize, usize)],
) -> Result<(), TestCaseError> {
    let line = serde_json::to_string(value).expect("serializes");
    let reference = value_path::<T>(&line);
    prop_assert!(reference.is_ok(), "valid line {line} fails: {reference:?}");
    let typed = typed_path::<T>(&line);
    prop_assert!(
        typed == reference.clone().ok(),
        "valid line {line}: typed {typed:?}, value path {reference:?}"
    );
    for &m in mutations {
        let (mutated, reachable) = mutate(&line, m);
        let reference = value_path::<T>(&mutated);
        let answered = from_str_path::<T>(&mutated);
        prop_assert!(
            answered == reference,
            "{m:?} {mutated}: from_str {answered:?}, value path {reference:?}"
        );
        let typed = typed_path::<T>(&mutated);
        match &typed {
            Some(bytes) => prop_assert!(
                Ok(bytes) == reference.as_ref(),
                "{m:?} {mutated}: typed {bytes}, value path {reference:?}"
            ),
            None => prop_assert!(
                !reachable || reference.is_err(),
                "{m:?} {mutated}: typed path refused, value path {reference:?}"
            ),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn typed_decode_agrees_with_the_value_path(
        request in request_strategy(),
        frame in v2_frame_strategy(),
        report in status_report_strategy(),
        reply in 0usize..6,
        mutations in prop::collection::vec(mutation_strategy(), 6),
    ) {
        agree(&request, &mutations)?;
        agree(&frame, &mutations)?;
        agree(&report, &mutations)?;
        let replies = real_replies();
        agree(&replies[reply % replies.len()], &mutations)?;
    }
}

/// A sink keeping each frame's wire line: typed frames serialized as the
/// reactor's connection sink writes them, raw lines as they come.
#[derive(Default)]
struct RawLines(Vec<String>);

impl FrameSink for RawLines {
    fn send(&mut self, frame: &Response) -> io::Result<()> {
        self.0
            .push(serde_json::to_string(frame).expect("frame serializes"));
        Ok(())
    }

    fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.0.push(line.to_owned());
        Ok(())
    }
}

/// The cells both warm runtimes memoize: [`cheap_cells`] and a small
/// Yoco GEMM whose `4`s and accelerator name the spelling test rewrites.
fn memoized_cells() -> Vec<Scenario> {
    let mut cells = cheap_cells();
    cells.push(Scenario::gemm(
        AcceleratorKind::Yoco,
        DesignPoint {
            tiles: Some(4),
            ..DesignPoint::default()
        },
        WorkloadSpec::Gemm {
            name: "g4".into(),
            m: 4,
            k: 8,
            n: 8,
            kind: yoco_arch::workload::LayerKind::Linear,
        },
    ));
    cells
}

/// A runtime whose memo holds [`memoized_cells`]. The admission depth
/// is so large that a `Busy` hint is always the 1 ms floor, whatever
/// service times priming fed the gate.
fn primed_runtime(tag: &str) -> Runtime {
    let dir =
        std::env::temp_dir().join(format!("yoco-warm-agreement-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rt = Runtime::new(
        Engine::ephemeral().with_cache(ResultCache::at(&dir)),
        ServeConfig {
            queue_depth: 1 << 20,
            jobs: 2,
        },
    );
    let line = serde_json::to_string(&Request::Eval(EvalRequest::new("prime", memoized_cells())))
        .expect("serializes");
    let served = rt.handle_line(&line, &mut RawLines::default());
    assert!(
        matches!(served, Ok(Served::Eval { misses: 7, .. })),
        "{served:?}"
    );
    // The memo is on while a cache is attached. Its directory is not
    // read again: every line the tests send either hits the memo or is
    // declined without evaluating anything.
    let _ = std::fs::remove_dir_all(&dir);
    rt
}

/// Two primed runtimes: `inline` is only ever asked through
/// `try_handle_warm`, which never adds to its memo, and `dispatch`
/// through `handle_line` on the lines `inline` answered, which its memo
/// answers too, so the two memos stay the same.
fn warm_runtimes() -> &'static (Runtime, Runtime) {
    static RUNTIMES: OnceLock<(Runtime, Runtime)> = OnceLock::new();
    RUNTIMES.get_or_init(|| (primed_runtime("inline"), primed_runtime("dispatch")))
}

/// The counters a served line moves: requests, cells, cache hits and
/// memo-served requests.
fn counters(rt: &Runtime) -> [u64; 4] {
    let m = rt.metrics().snapshot();
    [
        "requests_total",
        "cells_total",
        "cache_hits_total",
        "memo_served_total",
    ]
    .map(|name| m.counter(name).expect("counter"))
}

/// A line `try_handle_warm` may answer, and whether it must: either
/// version, cells drawn from the memoized ones (repeats allowed) or, now
/// and then, one that may not be memoized, sometimes forced, sometimes
/// with a deadline that has already passed. An unforced line of
/// memoized cells, as serialized, must be answered inline.
fn warm_line_strategy() -> impl Strategy<Value = (String, bool)> {
    (
        0u8..2,
        string_strategy(),
        prop::collection::vec(0usize..8, 0..6),
        scenario_strategy(),
        0u8..8,
    )
        .prop_map(|(streamed, id, picks, stranger, flags)| {
            let pool = memoized_cells();
            let scenarios: Vec<Scenario> = picks
                .iter()
                .map(|&i| pool.get(i).cloned().unwrap_or_else(|| stranger.clone()))
                .collect();
            let memoized = scenarios.iter().all(|s| pool.contains(s));
            let mut req = if streamed == 1 {
                EvalRequest::streaming(id, scenarios)
            } else {
                EvalRequest::new(id, scenarios)
            };
            req.force = flags == 0;
            req.deadline_ms = match flags {
                1 => Some(0),
                2 => Some(60_000),
                _ => None,
            };
            let line = serde_json::to_string(&Request::Eval(req)).expect("serializes");
            (line, memoized && flags != 0)
        })
}

/// Asks `inline` to answer `line` from its text. It either declines and
/// emits nothing, or emits exactly the lines `dispatch`'s full decode
/// emits for it, with the same counter moves. Returns whether it
/// answered.
fn answers_alike(line: &str) -> Result<bool, TestCaseError> {
    let (inline, dispatch) = warm_runtimes();
    let before = counters(inline);
    let mut fast = RawLines::default();
    let Some(served) = inline.try_handle_warm(line, Instant::now(), &mut fast) else {
        prop_assert!(fast.0.is_empty(), "{line}: declined after {:?}", fast.0);
        prop_assert_eq!(counters(inline), before, "{} declined", line);
        return Ok(false);
    };
    let fast_moves = moves(before, counters(inline));
    let before = counters(dispatch);
    let mut full = RawLines::default();
    let reference = dispatch
        .handle_line(line, &mut full)
        .expect("sink never fails");
    prop_assert_eq!(served.expect("sink never fails"), reference, "{}", line);
    prop_assert_eq!(&fast.0, &full.0, "{}", line);
    prop_assert_eq!(fast_moves, moves(before, counters(dispatch)), "{}", line);
    Ok(true)
}

fn moves(before: [u64; 4], after: [u64; 4]) -> [u64; 4] {
    std::array::from_fn(|i| after[i] - before[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn warm_path_answers_as_the_full_decode_does_or_not_at_all(
        (line, inline) in warm_line_strategy(),
        mutations in prop::collection::vec(mutation_strategy(), 6),
    ) {
        prop_assert_eq!(answers_alike(&line)?, inline, "{}", line);
        for &m in &mutations {
            answers_alike(&mutate(&line, m).0)?;
        }
    }
}

#[test]
fn non_canonical_spellings_decode_on_a_worker_and_still_hit() {
    let rt = primed_runtime("spelling");
    let cells = memoized_cells();
    let g4 = cells.last().expect("the small GEMM");
    let g4_text = serde_json::to_string(g4).expect("serializes");
    let reordered = format!(
        r#"{{"kind":{},"id":{}}}"#,
        serde_json::to_string(&g4.kind).expect("serializes"),
        serde_json::to_string(&g4.id).expect("serializes")
    );
    for req in [
        EvalRequest::new("spelled", cells.clone()),
        EvalRequest::streaming("spelled", cells.clone()),
    ] {
        let request = Request::Eval(req);
        let canonical = serde_json::to_string(&request).expect("serializes");
        let mut want = RawLines::default();
        assert!(rt
            .try_handle_warm(&canonical, Instant::now(), &mut want)
            .is_some());
        let spellings = [
            canonical.replacen(r#"{"id":"#, r#"{ "id" :"#, 1),
            canonical.replace(&g4_text, &reordered),
            canonical.replace(&g4_text, &g4_text.replacen('{', r#"{"note":null,"#, 1)),
            canonical.replacen(r#""Yoco""#, r#""\u0059oco""#, 1),
            canonical.replace(r#""m":4,"#, r#""m":4.0,"#),
            canonical.replacen(r#""scenarios":"#, r#""scenarios":[],"scenarios":"#, 1),
        ];
        for line in spellings {
            assert_ne!(line, canonical);
            assert_eq!(
                serde_json::from_str::<Request>(&line).expect("decodes"),
                request,
                "{line}"
            );
            let mut inline = RawLines::default();
            assert!(
                rt.try_handle_warm(&line, Instant::now(), &mut inline)
                    .is_none(),
                "{line}"
            );
            assert!(inline.0.is_empty(), "{line}");
            let memo_served = counters(&rt)[3];
            let mut got = RawLines::default();
            rt.handle_line(&line, &mut got).expect("sink never fails");
            assert_eq!(counters(&rt)[3], memo_served + 1, "{line}");
            assert_eq!(got.0, want.0, "{line}");
        }
    }
}

#[test]
fn the_warm_envelope_reads_every_eval_request_field() {
    // `Runtime::try_handle_warm` decodes these fields of an eval line
    // and takes `scenarios` as raw text. A field added to `EvalRequest`
    // has to be read there before it joins this list.
    let request = serde_json::to_value(&EvalRequest::new("x", Vec::new()));
    let fields: Vec<&str> = request
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        fields,
        ["version", "id", "scenarios", "force", "deadline_ms"]
    );
}
