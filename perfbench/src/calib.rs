//! Host speed: a fixed unit of benchmark-owned work, timed beside the
//! ops, that the end-to-end times are scaled by.
//!
//! The host this benchmark was written on is a shared KVM guest whose
//! speed for the program's kind of work changes every few seconds to
//! minutes while a plain dependent-arithmetic loop keeps its speed: the
//! same `warm-serve` ops took 0.13 ms in one minute and 0.21 ms in the
//! next, user CPU per op included (see `NOTES.md`, "Noise"). No run that
//! fits the benchmark's time budget averages those states out. So every
//! end-to-end time is taken at a reference host speed instead: the raw
//! time divided by the host's speed factor measured right beside it, the
//! duration of this unit then over `REF_US`, its duration on that host in
//! a typical state.
//!
//! The unit parses a fixed JSON document into an owned tree and walks it,
//! the kind of work (byte scanning with data-dependent branches, many
//! small allocations, pointer chasing) that the program's ops spend most
//! of their time on and that slows down with them. Its parser and
//! document are frozen here, never calling the program or its vendored
//! crates, so no change to the program moves the factor.

use std::collections::BTreeMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Duration of one unit, µs, on the host the benchmark was written on in
/// a typical state. It sets the scale of the reported times only; two runs
/// compare the same way whatever it is.
pub const REF_US: f64 = 170.0;
/// Units timed per factor; the factor takes their median.
const REPS: usize = 5;
/// Cells in the document: about 9 KB, the size of a `fig8` request.
const CELLS: usize = 40;

/// The parsed tree.
enum Node {
    Null,
    Bool(bool),
    Int(u64),
    Float(f64),
    Text(String),
    List(Vec<Node>),
    Map(BTreeMap<String, Node>),
}

impl Node {
    /// A walk over the whole tree, as decoding it into typed values does.
    fn weight(&self) -> f64 {
        match self {
            Node::Null => 0.0,
            Node::Bool(b) => f64::from(u8::from(*b)),
            Node::Int(i) => *i as f64,
            Node::Float(f) => *f,
            Node::Text(t) => t.len() as f64,
            Node::List(items) => items.iter().map(Node::weight).sum(),
            Node::Map(map) => map.iter().map(|(k, v)| k.len() as f64 + v.weight()).sum(),
        }
    }
}

/// The fixed document: `CELLS` scenario-like objects with nested kinds,
/// numbers, and string fields.
fn document() -> String {
    let mut out = String::from("{\"Eval\":{\"version\":1,\"id\":\"calibration\",\"scenarios\":[");
    for i in 0..CELLS {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":\"cell/{i}/gemm-{m}x{k}x{n}\",\"kind\":{{\"Gemm\":{{\"m\":{m},\"k\":{k},\
             \"n\":{n},\"accelerator\":\"Yoco\",\"design\":{{\"tiles\":{t},\"sigma\":{s:.6e},\
             \"labels\":[\"in\",\"w\",\"out\"],\"enabled\":{e}}},\"note\":null}}}},\
             \"weights\":[{a:.4},{b:.4},{c:.4},{d}]}}",
            m = 64 << (i % 4),
            k = 768 + 16 * i,
            n = 3072 - 8 * i,
            t = 1 + i % 16,
            s = 1.0e-3 * (1.0 + i as f64 / 7.0),
            e = i % 3 == 0,
            a = 0.5 + i as f64 / 64.0,
            b = 2.0 - i as f64 / 32.0,
            c = i as f64 * 1.125,
            d = 1000 + i * 37,
        ));
    }
    out.push_str("],\"force\":false}}");
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> u8 {
        self.bytes.get(self.pos).copied().unwrap_or(0)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), b' ' | b'\n' | b'\t' | b'\r') {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        (self.peek() == b).then(|| self.pos += 1)
    }

    fn value(&mut self) -> Option<Node> {
        self.skip_ws();
        match self.peek() {
            b'{' => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                if self.eat(b'}').is_some() {
                    return Some(Node::Map(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.text()?;
                    self.eat(b':')?;
                    map.insert(key, self.value()?);
                    if self.eat(b',').is_none() {
                        self.eat(b'}')?;
                        return Some(Node::Map(map));
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut list = Vec::new();
                if self.eat(b']').is_some() {
                    return Some(Node::List(list));
                }
                loop {
                    list.push(self.value()?);
                    if self.eat(b',').is_none() {
                        self.eat(b']')?;
                        return Some(Node::List(list));
                    }
                }
            }
            b'"' => self.text().map(Node::Text),
            b'n' => self.word("null", Node::Null),
            b't' => self.word("true", Node::Bool(true)),
            b'f' => self.word("false", Node::Bool(false)),
            _ => self.number(),
        }
    }

    fn word(&mut self, word: &str, node: Node) -> Option<Node> {
        self.bytes[self.pos..]
            .starts_with(word.as_bytes())
            .then(|| {
                self.pos += word.len();
                node
            })
    }

    fn text(&mut self) -> Option<String> {
        if self.peek() != b'"' {
            return None;
        }
        let start = self.pos + 1;
        let len = self.bytes[start..].iter().position(|&b| b == b'"')?;
        self.pos = start + len + 1;
        std::str::from_utf8(&self.bytes[start..start + len])
            .ok()
            .map(str::to_owned)
    }

    fn number(&mut self) -> Option<Node> {
        let start = self.pos;
        let mut float = false;
        while let b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' = self.peek() {
            float |= !self.peek().is_ascii_digit();
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        if float {
            text.parse().ok().map(Node::Float)
        } else {
            text.parse().ok().map(Node::Int)
        }
    }
}

/// Parses `text` into a tree; `None` if it is not the JSON this parser reads.
fn parse(text: &str) -> Option<Node> {
    Parser {
        bytes: text.as_bytes(),
        pos: 0,
    }
    .value()
}

/// The unit's input, built once.
pub struct Probe {
    doc: String,
}

impl Probe {
    pub fn new() -> Self {
        Self { doc: document() }
    }

    /// The host's speed factor now: the median duration of `REPS` units
    /// over `REF_US`, above 1 while the host is slower than typical.
    pub fn factor(&self) -> f64 {
        let mut us = [0.0; REPS];
        for u in &mut us {
            let t = Instant::now();
            let tree = parse(std::hint::black_box(&self.doc));
            std::hint::black_box(tree.map(|t| t.weight()));
            *u = t.elapsed().as_secs_f64() * 1e6;
        }
        crate::trace::median(&us) / REF_US
    }

    /// The mean factor over the time `op` takes, sampled every `every` by
    /// a thread beside it, with `op`'s result.
    pub fn during<T>(&self, every: Duration, op: impl FnOnce() -> T) -> (T, f64) {
        let (done, wait) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let sampler = s.spawn(move || {
                let mut factors = vec![self.factor()];
                while let Err(RecvTimeoutError::Timeout) = wait.recv_timeout(every) {
                    factors.push(self.factor());
                }
                factors.iter().sum::<f64>() / factors.len() as f64
            });
            let out = op();
            drop(done);
            (out, sampler.join().expect("the sampler does not panic"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_document_parses_to_its_cells() {
        let doc = document();
        assert!((8_000..12_000).contains(&doc.len()), "{} bytes", doc.len());
        let Some(Node::Map(top)) = parse(&doc) else {
            panic!("not an object");
        };
        let Some(Node::Map(eval)) = top.get("Eval") else {
            panic!("no Eval");
        };
        let Some(Node::List(cells)) = eval.get("scenarios") else {
            panic!("no scenarios");
        };
        assert_eq!(cells.len(), CELLS);
        assert!(matches!(eval.get("force"), Some(Node::Bool(false))));
    }
}
