//! The whole benchmark end to end at 1/20 of its op counts: every
//! workload, both passes, every declared metric, no failed operation.

use axsbench::json::Json;
use axsbench::spec::Contract;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

#[test]
fn all_workloads_smoke() {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let out = scratch.join("result.json");
    let started = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_axsbench"))
        .args(["--all", "--smoke", "--seed", "31"])
        .arg("--dir")
        .arg(scratch.join("data"))
        .arg("--out")
        .arg(&out)
        .output()
        .unwrap();
    let elapsed = started.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "axsbench --all --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(elapsed.as_secs() < 20, "smoke pass took {elapsed:?}");

    let contract =
        Contract::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")).unwrap();
    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    for workload in &contract.workloads {
        for (pass, declared) in [
            ("end_to_end", &contract.end_to_end),
            ("per_layer", &contract.per_layer),
        ] {
            let result = doc
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get(pass))
                .unwrap_or_else(|| panic!("{workload} {pass} missing"));
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
            let emitted: Vec<&String> = metrics.keys().collect();
            let wanted: Vec<&String> = declared.keys().collect();
            assert_eq!(emitted, wanted, "{workload} {pass}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {name} = {value:?}"
                );
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(declared[name].unit.as_str())
                );
            }
        }
        // The line format a person reads: workload metric value unit.
        assert!(stdout.contains(&format!("{workload} setup_s ")));
        assert!(stdout.contains(&format!("{workload} failed_ops_pct 0 %")));
        assert!(stdout.contains("# budget.read"));
    }
    // The traced pass leaves its spans beside the archive.
    let trace = std::fs::read_to_string(scratch.join("result.json.trace.json")).unwrap();
    let trace = Json::parse(&trace).unwrap();
    let trace = trace.get("ingest").and_then(|w| w.get("trace")).unwrap();
    let names = trace.get("names").and_then(Json::as_arr).unwrap();
    let fsync = names
        .iter()
        .position(|n| n.as_str() == Some("storage.fsync_wait"))
        .expect("the replay waits for fsyncs") as f64;
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    // [name, start_ns, end_ns, parent, req]: an fsync wait is caused by a
    // replayed write, whose span comes earlier in the array.
    assert!(spans.iter().enumerate().any(|(i, s)| {
        let s = s.as_arr().unwrap();
        s[0].as_f64() == Some(fsync)
            && s[3].as_f64().is_some_and(|p| p >= 0.0 && (p as usize) < i)
            && s[1].as_f64() <= s[2].as_f64()
    }));
    let _ = std::fs::remove_dir_all(&scratch);
}
