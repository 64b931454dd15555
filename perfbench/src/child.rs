//! One process per workload.
//!
//! `VmHWM` and the allocator's heap belong to the process, and a
//! workload leaves heap resident after it ends, which a later
//! workload's peak would count. `--workload all` therefore runs each
//! workload in a child process of its own, exactly as a lone run, and
//! merges the children's summaries.

use ch_common::json::Json;
use std::process::{Command, Stdio};

/// What a child printed and how it ended.
pub struct ChildRun {
    /// Standard output without the summary line.
    pub lines: Vec<String>,
    /// The summary: the last line of standard output that is a JSON
    /// object.
    pub summary: Json,
    /// Whether the child exited with status 0.
    pub success: bool,
}

/// Runs `cmd` to its end with standard output captured; standard error
/// passes through.
///
/// # Errors
///
/// The child could not be started, or printed no summary.
pub fn run(mut cmd: Command) -> Result<ChildRun, String> {
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {cmd:?}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let at = lines
        .iter()
        .rposition(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{cmd:?} printed no summary ({})", out.status))?;
    let summary =
        Json::parse(&lines.remove(at)).map_err(|e| format!("{cmd:?}: unreadable summary: {e}"))?;
    Ok(ChildRun {
        lines,
        summary,
        success: out.status.success(),
    })
}

/// The summary line of a run.
pub fn summary(attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Int(attempted as i64)),
        ("failed".into(), Json::Int(failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}
