//! The one write policy for the committed `BENCH_<n>.json` snapshots.
//!
//! Every snapshot writer (`figures bench`, `figures opt`, `figures
//! density`, `ch-serve bench`) replaces its file through
//! [`write_snapshot`]:
//!
//! * a committed snapshot at the run's scale is handed to the writer's
//!   gate first (the regression check of `BENCH_6.json`; the other
//!   writers accept any baseline), then overwritten;
//! * a committed snapshot at another scale is neither compared nor
//!   overwritten, so a casual test-scale run cannot clobber a
//!   small-scale baseline;
//! * [`REBASELINE_VAR`] in the environment skips both: the snapshot is
//!   written, compared against nothing.

use ch_common::json::Json;
use ch_workloads::Scale;
use std::path::Path;

/// Set (to anything) to re-baseline: write the snapshot without the
/// gate and without the scale guard.
pub const REBASELINE_VAR: &str = "CH_BENCH_SKIP_CHECK";

/// Whether the environment asks for a re-baseline ([`REBASELINE_VAR`]).
pub fn rebaseline_requested() -> bool {
    std::env::var_os(REBASELINE_VAR).is_some()
}

/// What [`write_snapshot`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Written {
    /// Compared against the committed same-scale snapshot, then written
    /// over it; the text is the gate's verdict.
    OverBaseline(String),
    /// Written with nothing compared: no snapshot was committed, or a
    /// re-baseline was requested.
    Fresh,
    /// The committed snapshot is at another scale: nothing compared,
    /// nothing written.
    KeptOtherScale,
}

/// Writes the fresh snapshot `json` (taken at `scale`) to `path` under
/// the shared policy. `gate` sees the committed same-scale baseline
/// before anything is written; its `Ok` text is the verdict.
///
/// # Errors
///
/// The gate's error, with the committed file left as it was.
///
/// # Panics
///
/// If the snapshot cannot be written.
pub fn write_snapshot(
    path: &Path,
    scale: Scale,
    json: &str,
    rebaseline: bool,
    gate: impl FnOnce(&Json) -> Result<String, String>,
) -> Result<Written, String> {
    let baseline = match std::fs::read_to_string(path) {
        Ok(text) if !rebaseline => Some(Json::parse(&text).ok()),
        _ => None,
    };
    let written = match baseline {
        None => Written::Fresh,
        // An unreadable or foreign-scale snapshot is kept: only a
        // re-baseline replaces it.
        Some(Some(b)) if b.get("scale").and_then(Json::as_str) == Some(scale.name()) => {
            Written::OverBaseline(gate(&b)?)
        }
        Some(_) => return Ok(Written::KeptOtherScale),
    };
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    Ok(written)
}

/// Writes a snapshot whose writer has no gate (every writer but
/// `figures bench`) and says in one line what happened.
pub fn write_ungated(path: &str, scale: Scale, json: &str) -> &'static str {
    let accept = |_: &Json| Ok(String::new());
    match write_snapshot(Path::new(path), scale, json, rebaseline_requested(), accept) {
        Ok(Written::KeptOtherScale) => {
            "committed snapshot is a different scale: not overwritten \
             (CH_BENCH_SKIP_CHECK=1 to re-baseline)"
        }
        _ => "snapshot written",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(scale: &str, value: u32) -> String {
        format!("{{\n  \"scale\": \"{scale}\",\n  \"value\": {value}\n}}\n")
    }

    #[test]
    fn another_scale_is_kept_unless_rebaselined() {
        let path = std::env::temp_dir().join(format!("ch_snapshot_{}.json", std::process::id()));
        let committed = snapshot("small", 1);
        let fresh = snapshot("test", 2);
        std::fs::write(&path, &committed).unwrap();

        let gate =
            |_: &Json| -> Result<String, String> { panic!("gate runs at the same scale only") };
        let kept = write_snapshot(&path, Scale::Test, &fresh, false, gate);
        assert_eq!(kept, Ok(Written::KeptOtherScale));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), committed);

        let rebased = write_snapshot(&path, Scale::Test, &fresh, true, gate);
        assert_eq!(rebased, Ok(Written::Fresh));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), fresh);

        // Same scale: the gate sees the baseline, and a failing gate
        // leaves it in place.
        let again = snapshot("test", 3);
        let failed = write_snapshot(&path, Scale::Test, &again, false, |b| {
            assert_eq!(b.get("value").and_then(Json::as_u64), Some(2));
            Err("regressed".to_string())
        });
        assert_eq!(failed, Err("regressed".to_string()));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), fresh);
        let passed = write_snapshot(&path, Scale::Test, &again, false, |_| Ok("ok".into()));
        assert_eq!(passed, Ok(Written::OverBaseline("ok".to_string())));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), again);

        std::fs::remove_file(&path).unwrap();
    }
}
