//! `BENCHMARK.json` against the binary: every declared metric is emitted,
//! every emitted metric is declared, and the file keeps to the limits the
//! benchmark driver refuses files over.

use axsbench::json::Json;
use axsbench::spec::{self, Contract};
use axsbench::wire::Workload;
use std::collections::BTreeSet;
use std::path::Path;

fn contract_text() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn declared_and_emitted_metrics_are_the_same_set() {
    let contract = Contract::parse(&contract_text()).unwrap();
    let declared: BTreeSet<(String, String)> = contract
        .end_to_end
        .iter()
        .map(|(n, d)| (n.clone(), d.unit.clone()))
        .collect();
    let emitted: BTreeSet<(String, String)> = spec::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared, emitted, "end_to_end");
    let declared: BTreeSet<(String, String)> = contract
        .per_layer
        .iter()
        .map(|(n, d)| (n.clone(), d.unit.clone()))
        .collect();
    let emitted: BTreeSet<(String, String)> = spec::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared, emitted, "per_layer");
    let workloads: Vec<&str> = Workload::DRIVER.iter().map(|w| w.name()).collect();
    assert_eq!(contract.workloads, workloads);
    assert!(Workload::DRIVER.iter().all(|w| Workload::ALL.contains(w)));
}

#[test]
fn file_keeps_to_the_drivers_limits() {
    let text = contract_text();
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(&text).unwrap();
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let strings = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap().to_string())
            .collect()
    };
    let paths = strings("paths");
    assert_eq!(paths, ["axsbench"]);
    let command = strings("command");
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    // 4 + 22 runs per workload, each run_seconds long plus set-up, inside
    // the driver's 3420 s with room for two builds.
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(runs * (seconds + 3.0) + 120.0 < 3420.0);
    let mut names = BTreeSet::new();
    for w in workloads {
        let w = w.as_obj().unwrap();
        assert_eq!(w.keys().collect::<Vec<_>>(), ["name", "why"]);
        let why = w["why"].as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'));
        assert!(names.insert(w["name"].as_str().unwrap().to_string()));
    }
    let mut has_setup = false;
    for (key, fields) in [
        ("end_to_end", &["better", "bound", "name", "unit"][..]),
        ("per_layer", &["better", "name", "unit"][..]),
    ] {
        let list = doc.get(key).and_then(Json::as_arr).unwrap();
        let cap = if key == "end_to_end" { 16 } else { 128 };
        assert!((1..=cap).contains(&list.len()), "{key}: {}", list.len());
        for m in list {
            let m = m.as_obj().unwrap();
            assert_eq!(m.keys().map(String::as_str).collect::<Vec<_>>(), fields);
            let name = m["name"].as_str().unwrap();
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(m["unit"].as_str().unwrap()), "{name}");
            assert!(["lower", "higher"].contains(&m["better"].as_str().unwrap()));
            assert!(names.insert(name.to_string()), "{name} used twice");
            if let Some(bound) = m.get("bound") {
                let bound = bound.as_f64().unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            }
            if name == "setup_s" {
                has_setup = true;
                assert_eq!(m["unit"].as_str(), Some("s"));
                assert_eq!(m["better"].as_str(), Some("lower"));
            }
        }
    }
    assert!(has_setup);
}
