//! Self-check of `BENCHMARK.json`: its shape (keys, name and unit
//! rules, list sizes, bounds, paths) and its agreement with this
//! package's own tables, so a malformed manifest fails a test instead
//! of a benchmark run.

use crate::layers::{END_TO_END, LAYERS};
use crate::workload::Workload;
use std::collections::BTreeSet;
use std::path::Path;
use sweepkit::{parse_json, Json};

const MAX_BYTES: usize = 64 * 1024;

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn is_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && !s.split('/').any(|part| part == "..")
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
}

fn keys(obj: &Json) -> Option<Vec<&str>> {
    match obj {
        Json::Obj(members) => Some(members.iter().map(|(k, _)| k.as_str()).collect()),
        _ => None,
    }
}

fn exact_keys(obj: &Json, want: &[&str], what: &str, errs: &mut Vec<String>) {
    match keys(obj) {
        Some(k) if k == want => {}
        Some(k) => errs.push(format!("{what}: keys {k:?}, want exactly {want:?}")),
        None => errs.push(format!("{what}: not an object")),
    }
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key).and_then(Json::as_str).unwrap_or("")
}

fn list<'a>(
    root: &'a Json,
    key: &str,
    range: (usize, usize),
    errs: &mut Vec<String>,
) -> &'a [Json] {
    let items = root.get(key).and_then(Json::as_arr).unwrap_or(&[]);
    if items.len() < range.0 || items.len() > range.1 {
        errs.push(format!(
            "{key}: {} entries, want {} to {}",
            items.len(),
            range.0,
            range.1
        ));
    }
    items
}

/// Checks the manifest text; `root` is the repository checkout (for
/// the `paths` entries). Returns every problem found.
pub fn check_manifest(text: &str, root: &Path) -> Vec<String> {
    let mut errs = Vec::new();
    if text.len() > MAX_BYTES {
        errs.push(format!("{} bytes, over {MAX_BYTES}", text.len()));
    }
    let doc = match parse_json(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("not JSON: {e}")],
    };
    exact_keys(
        &doc,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "manifest",
        &mut errs,
    );
    let mut names = BTreeSet::new();
    let mut name = |n: &str, errs: &mut Vec<String>| {
        if !is_name(n) {
            errs.push(format!("bad name {n:?}"));
        }
        if !names.insert(n.to_string()) {
            errs.push(format!("name {n:?} used twice"));
        }
    };

    let command = list(&doc, "command", (1, 32), &mut errs);
    for arg in command {
        match arg.as_str() {
            Some(a)
                if a.len() <= 200 && !a.starts_with('/') && !a.split('/').any(|p| p == "..") => {}
            _ => errs.push(format!("command: bad argument {arg:?}")),
        }
    }
    let paths = list(&doc, "paths", (1, 16), &mut errs);
    let mut path_list = Vec::new();
    for p in paths {
        let p = p.as_str().unwrap_or("");
        if !is_path(p) || !root.join(p).is_dir() {
            errs.push(format!("paths: {p:?} is not a directory of the checkout"));
        }
        path_list.push(p);
    }
    // The command may name files only under `paths`.
    for arg in command.iter().filter_map(Json::as_str) {
        if arg.contains('/') && !path_list.iter().any(|p| arg.starts_with(&format!("{p}/"))) {
            errs.push(format!("command: {arg:?} is outside paths"));
        }
    }
    match doc.get("run_seconds") {
        Some(Json::Num(s)) if s.fract() == 0.0 && (1.0..=60.0).contains(s) => {}
        other => errs.push(format!(
            "run_seconds: {other:?}, want a whole number 1 to 60"
        )),
    }

    let workloads = list(&doc, "workloads", (2, 8), &mut errs);
    for w in workloads {
        exact_keys(w, &["name", "why"], "workload", &mut errs);
        let (n, why) = (str_of(w, "name"), str_of(w, "why"));
        name(n, &mut errs);
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            errs.push(format!(
                "workload {n}: `why` must be one line of 1 to 200 characters"
            ));
        }
        if Workload::parse(n).is_none() {
            errs.push(format!("workload {n}: unknown to the benchmark"));
        }
    }
    let listed: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    let gated: Vec<&str> = Workload::GATED.iter().map(|w| w.name()).collect();
    if listed != gated {
        errs.push(format!(
            "workloads {listed:?}, the benchmark gates {gated:?}"
        ));
    }

    let e2e = list(&doc, "end_to_end", (1, 16), &mut errs);
    let mut bounds = Vec::new();
    for m in e2e {
        exact_keys(
            m,
            &["name", "unit", "better", "bound"],
            "end_to_end metric",
            &mut errs,
        );
        let n = str_of(m, "name");
        name(n, &mut errs);
        let bound = match m.get("bound") {
            Some(Json::Num(b)) if *b > 0.0 && *b <= 0.25 => *b,
            other => {
                errs.push(format!("{n}: bound {other:?}, want (0, 0.25]"));
                0.0
            }
        };
        bounds.push((n, bound));
        match END_TO_END.iter().find(|d| d.name == n) {
            Some(d)
                if d.unit == str_of(m, "unit")
                    && str_of(m, "better") == "lower"
                    && d.bound == bound => {}
            _ => errs.push(format!(
                "{n}: differs from the benchmark's end-to-end table"
            )),
        }
        if !is_unit(str_of(m, "unit")) {
            errs.push(format!("{n}: bad unit"));
        }
    }
    if e2e.len() != END_TO_END.len() {
        errs.push(format!(
            "end_to_end lists {}, the benchmark reports {}",
            e2e.len(),
            END_TO_END.len()
        ));
    }
    let largest = bounds.iter().map(|(_, b)| *b).fold(0.0, f64::max);
    match bounds.iter().find(|(n, _)| *n == "setup_s") {
        Some((_, b)) if *b == largest => {}
        _ => errs.push("setup_s must be listed with the largest bound".into()),
    }

    let per_layer = list(&doc, "per_layer", (1, 128), &mut errs);
    for m in per_layer {
        exact_keys(
            m,
            &["name", "unit", "better"],
            "per_layer metric",
            &mut errs,
        );
        let n = str_of(m, "name");
        name(n, &mut errs);
        if !is_unit(str_of(m, "unit")) {
            errs.push(format!("{n}: bad unit"));
        }
        let better = str_of(m, "better");
        if better != "lower" && better != "higher" {
            errs.push(format!("{n}: better {better:?}"));
        }
        match LAYERS.iter().find(|d| d.name == n) {
            Some(d) if d.unit == str_of(m, "unit") && d.better == better => {}
            _ => errs.push(format!("{n}: differs from the benchmark's layer table")),
        }
    }
    if per_layer.len() != LAYERS.len() {
        errs.push(format!(
            "per_layer lists {}, the benchmark reports {}",
            per_layer.len(),
            LAYERS.len()
        ));
    }
    for d in LAYERS {
        if d.moves.is_empty() && d.note.is_empty() {
            errs.push(format!("{}: names no end-to-end metric it moves", d.name));
        }
        for (metric, workload) in d.moves {
            if !END_TO_END.iter().any(|e| e.name == *metric) || Workload::parse(workload).is_none()
            {
                errs.push(format!("{}: moves unknown {metric} on {workload}", d.name));
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_and_unit_rules() {
        assert!(is_name("wall_s") && is_name("linsolve.factor_s") && is_name("ladder_1000"));
        assert!(!is_name("_x") && !is_name("a b") && !is_name(&"x".repeat(65)));
        assert!(is_unit("s") && is_unit("steps/period") && !is_unit("a b"));
        assert!(is_path("vcobench") && !is_path("/abs") && !is_path("a/../b"));
    }
}
