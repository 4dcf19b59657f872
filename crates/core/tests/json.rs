//! The workspace's JSON value type: writer/reader round trips, the
//! committed bench files, and the exact text of `SynthTrace::to_json`.

use polis_core::trace::Json;
use polis_core::{MetricValue, StageRecord, SynthTrace};
use std::time::Duration;

#[test]
fn synth_trace_json_keeps_its_exact_text() {
    let mut t = SynthTrace::new();
    t.push(StageRecord {
        stage: "chi",
        machine: Some("be\"lt".into()),
        wall: Duration::from_micros(7),
        counters: vec![
            ("mk_calls".into(), MetricValue::Int(3)),
            ("hit_rate".into(), MetricValue::Float(0.25)),
        ],
    });
    t.push(StageRecord {
        stage: "rtos",
        machine: None,
        wall: Duration::from_micros(1),
        counters: vec![],
    });
    // The layout every `--trace` file has had; readers rely on it.
    assert_eq!(
        t.to_json(),
        "{\n  \"stages\": [\n    {\n      \"stage\": \"chi\",\n      \"machine\": \"be\\\"lt\",\n      \
         \"wall_us\": 7,\n      \"counters\": {\n        \"mk_calls\": 3,\n        \
         \"hit_rate\": 0.25\n      }\n    },\n    {\n      \"stage\": \"rtos\",\n      \
         \"machine\": null,\n      \"wall_us\": 1,\n      \"counters\": {}\n    }\n  ]\n}\n"
    );
    assert!(Json::parse(&t.to_json()).is_ok());
}

#[test]
fn writer_and_reader_round_trip() {
    let big = u128::from(u64::MAX) * 3 + 7;
    let v = Json::obj([
        ("null", Json::Null),
        ("yes", Json::Bool(true)),
        ("no", Json::Bool(false)),
        ("big", Json::num(big)),
        ("fixed", Json::fixed(2.78, 3)),
        ("neg", Json::Num("-1.5e-3".into())),
        ("text", Json::Str("tab\t \"quoted\" \\ é \u{1}".into())),
        (
            "nested",
            Json::Arr(vec![
                Json::Arr(vec![]),
                Json::Arr(vec![Json::num(1), Json::Arr(vec![Json::Null])]),
                Json::Obj(vec![]),
            ]),
        ),
    ]);
    let back = Json::parse(&v.to_string()).expect("own output parses");
    assert_eq!(back, v);
    assert_eq!(back.get("big").and_then(Json::as_num::<u128>), Some(big));
    assert_eq!(back.get("fixed"), Some(&Json::Num("2.780".into())));
    assert_eq!(back.to_string(), v.to_string());
}

#[test]
fn reader_accepts_compact_json_and_rejects_malformed() {
    let v = Json::parse(r#"{"a":[1,-2.5E+3,"\u00e9\u20ac\/"],"b":{}}"#).unwrap();
    assert_eq!(
        v.get("a").and_then(Json::as_array).unwrap()[2].as_str(),
        Some("é€/")
    );
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "01x",
        "1.",
        "-",
        "\"\\x\"",
        "\"\\ud800\"",
        "nul",
        "[1] 2",
        "\"a\nb\"",
    ] {
        assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
    }
}

#[test]
fn reader_parses_the_committed_bench_files() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut files: Vec<String> = std::fs::read_dir(root)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
        .collect();
    files.sort();
    assert!(files.len() >= 2, "bench files: {files:?}");
    for file in &files {
        let text = std::fs::read_to_string(format!("{root}/{file}")).unwrap();
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let cases = ["current", "cases"]
            .iter()
            .find_map(|key| json.get(key).and_then(Json::as_array))
            .unwrap_or_else(|| panic!("{file}: no `current` or `cases` array"));
        assert!(!cases.is_empty(), "{file}: no cases");
        assert!(
            cases
                .iter()
                .all(|c| c.get("name").and_then(Json::as_str).is_some()),
            "{file}: a case has no name"
        );
    }
}
