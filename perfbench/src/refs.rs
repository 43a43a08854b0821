//! Reference outputs kept beside the benchmark (`reference/`): the
//! canonical-report digest of a cold `sweep run all`, and the exact reply
//! of every request shape the socket workloads send. A change that only
//! makes the program faster leaves every one of them identical;
//! `--write-reference` regenerates them after a deliberate output change.

use crate::wire::Expect;
use std::path::{Path, PathBuf};

/// FNV-1a, 64-bit: the digest of a canonical report.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest line stored for `canonical`: `fnv1a64 <hex> <bytes>`.
pub fn digest_line(canonical: &[u8]) -> String {
    format!("fnv1a64 {:016x} {}", fnv1a64(canonical), canonical.len())
}

/// Reference request ids: a warm v1 reply echoes its id, so the ids are
/// part of the expected bytes.
pub mod ids {
    pub const FIG8_V1: &str = "fig8-v1";
    pub const FIG8_V2: &str = "fig8-v2";
    pub const FIG9A_V1: &str = "fig9a-v1";
    pub const DSE_WARM: &str = "dse-full-v2";
    pub const DSE_FORCED: &str = "dse-full-forced";
}

/// Every reference, loaded.
pub struct Refs {
    /// `digest_line` of the cold `all` canonical report.
    pub all_digest: String,
    pub fig8_v1: Expect,
    pub fig8_v2: Expect,
    pub fig9a_v1: Expect,
    /// Warm v2 reply to the whole `dse-full` grid: subsets draw their
    /// expected `Cell` frames from it.
    pub dse_warm: Expect,
    /// Forced (cold) v2 reply to the whole `dse-full` grid.
    pub dse_forced: Expect,
}

/// File names under `reference/`, in `Refs` field order after the digest.
pub const FILES: [&str; 6] = [
    "all.digest",
    "fig8-v1.json",
    "fig8-v2.ndjson",
    "fig9a-v1.json",
    "dse-full-warm.ndjson",
    "dse-full-forced.ndjson",
];

fn lines(dir: &Path, name: &str) -> Result<Vec<Vec<u8>>, String> {
    let path = dir.join(name);
    let text = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(text
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(<[u8]>::to_vec)
        .collect())
}

impl Refs {
    /// Loads every reference from `dir`.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let line = |name: &str| -> Result<Expect, String> {
            let l = lines(dir, name)?;
            match l.as_slice() {
                [one] => Ok(Expect::Line(one.clone())),
                _ => Err(format!("{name}: expected one line, found {}", l.len())),
            }
        };
        let stream = |name: &str| Expect::stream(&lines(dir, name)?);
        let digest = lines(dir, FILES[0])?;
        Ok(Self {
            all_digest: String::from_utf8_lossy(digest.first().ok_or("empty all.digest")?)
                .into_owned(),
            fig8_v1: line(FILES[1])?,
            fig8_v2: stream(FILES[2])?,
            fig9a_v1: line(FILES[3])?,
            dse_warm: stream(FILES[4])?,
            dse_forced: stream(FILES[5])?,
        })
    }

    /// Writes every reference into `dir`.
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let exps = [
            &self.fig8_v1,
            &self.fig8_v2,
            &self.fig9a_v1,
            &self.dse_warm,
            &self.dse_forced,
        ];
        let mut files: Vec<(PathBuf, Vec<u8>)> = vec![(
            dir.join(FILES[0]),
            format!("{}\n", self.all_digest).into_bytes(),
        )];
        for (name, exp) in FILES[1..].iter().zip(exps) {
            let mut text = Vec::new();
            for l in exp.lines() {
                text.extend_from_slice(&l);
                text.push(b'\n');
            }
            files.push((dir.join(name), text));
        }
        for (path, text) in files {
            std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// The scenario id a `Cell` frame reports, from its raw bytes.
pub fn cell_id(frame: &[u8]) -> Option<&str> {
    let rest = frame.strip_prefix(b"{\"Cell\":{\"id\":\"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    std::str::from_utf8(&rest[..end]).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest_line(b"a"), "fnv1a64 af63dc4c8601ec8c 1");
    }

    #[test]
    fn cell_ids_come_from_the_frame_prefix() {
        assert_eq!(
            cell_id(br#"{"Cell":{"id":"dse/t4/resnet18","key":"k"}}"#),
            Some("dse/t4/resnet18")
        );
        assert_eq!(cell_id(br#"{"Done":{"id":"x"}}"#), None);
    }
}
