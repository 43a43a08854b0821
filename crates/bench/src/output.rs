//! Result output helpers: JSON records under the workspace `results/`
//! directory.

use serde::Serialize;
use std::fs;

/// Writes a serializable result as pretty JSON under
/// `<workspace root>/results/<name>.json`, using the same root discovery
/// as the sweep cache ([`yoco_sweep::root`]) — JSON lands in one place
/// regardless of the invocation directory. Errors are reported, not fatal
/// — figures still print.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = yoco_sweep::root::results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = fs::write(&path, s) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lands_under_the_workspace_results_dir() {
        write_json("output-module-selftest", &vec![1u32, 2, 3]);
        let path = yoco_sweep::root::results_dir().join("output-module-selftest.json");
        let text = fs::read_to_string(&path).expect("written");
        assert!(text.contains('1'));
        let _ = fs::remove_file(path);
    }
}
