//! The telemetry's text formats, pinned byte for byte: an epoch series'
//! compact JSON and its CSV, and a registry's JSON including a histogram's
//! `p50`/`p90`/`p99`. Each document is read with `from_json` and written
//! back, so the pins hold whatever in-memory representation the types use.

use autorfm_telemetry::{EpochSeries, Json, Registry};

/// Two samples: a whole window and a trailing partial one, two cores.
const SERIES: &str = concat!(
    r#"{"epoch_ns":100,"truncated":false,"samples":["#,
    r#"{"index":0,"start_ns":0,"end_ns":100,"partial":false,"acts":10,"alerts":1,"#,
    r#""reads":7,"writes":2,"refs":1,"rfms":3,"mitigations":4,"victim_refreshes":8,"#,
    r#""row_hits":3,"row_misses":1,"queue_depth":5,"ipc":[0.5,1]},"#,
    r#"{"index":1,"start_ns":100,"end_ns":130,"partial":true,"acts":2,"alerts":0,"#,
    r#""reads":1,"writes":0,"refs":0,"rfms":0,"mitigations":0,"victim_refreshes":0,"#,
    r#""row_hits":0,"row_misses":2,"queue_depth":0,"ipc":[0.25,0.125]}]}"#,
);

const SERIES_CSV: &str = "\
index,start_ns,end_ns,acts,alerts,reads,writes,refs,rfms,mitigations,victim_refreshes,\
row_hits,row_misses,queue_depth,row_hit_rate,total_ipc,ipc_core0,ipc_core1,partial
0,0,100,10,1,7,2,1,3,4,8,3,1,5,0.750000,1.500000,0.500000,1,0
1,100,130,2,0,1,0,0,0,0,0,0,2,0,0,0.375000,0.250000,0.125000,1
";

/// A labelled counter, a gauge and a histogram (bin width 10, three bins,
/// one overflow sample), as a registry writes them.
const REGISTRY: &str = concat!(
    r#"[{"name":"dram_acts","labels":{"scenario":"AutoRFM-4"},"type":"counter","value":123},"#,
    r#"{"name":"ipc","type":"gauge","value":2.25},"#,
    r#"{"name":"lat","labels":{"bank":"3"},"type":"histogram","value":{"bin_width":10,"#,
    r#""bins":[3,1,0],"overflow":1,"total":5,"sum":1025,"max":1000,"#,
    r#""p50":8.333333333333334,"p90":1000,"p99":1000}}]"#,
);

#[test]
fn series_and_registry_text_is_pinned() {
    let series = EpochSeries::from_json(&Json::parse(SERIES).unwrap());
    assert_eq!(series.samples.len(), 2);
    assert_eq!(series.to_json().to_compact(), SERIES);
    let mut csv = Vec::new();
    series.write_csv(&mut csv).unwrap();
    assert_eq!(String::from_utf8(csv).unwrap(), SERIES_CSV);

    let reg = Registry::from_json(&Json::parse(REGISTRY).unwrap());
    assert_eq!(reg.len(), 3);
    assert_eq!(reg.to_json().to_compact(), REGISTRY);
}

#[test]
fn a_histogram_of_zero_bin_width_is_skipped() {
    let text = concat!(
        r#"[{"name":"ok","type":"counter","value":1},"#,
        r#"{"name":"flat","type":"histogram","value":{"bin_width":0,"bins":[1],"#,
        r#""overflow":0,"total":1,"sum":0,"max":0}},"#,
        r#"{"name":"binless","type":"histogram","value":{"bin_width":4,"bins":[],"#,
        r#""overflow":0,"total":0,"sum":0,"max":0}}]"#,
    );
    let reg = Registry::from_json(&Json::parse(text).unwrap());
    let names: Vec<&str> = reg.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, ["ok"], "a shape `Histogram::new` rejects is skipped");
}
