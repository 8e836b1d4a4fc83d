//! End-to-end determinism of the serving simulator across full
//! rebuilds: two independently built workloads (dataset generation +
//! calibration epoch each time) must produce byte-identical report
//! JSON for the same config.

use serve::{PoissonArrivals, ServeConfig, ServeWorkload};

fn config() -> ServeConfig {
    let mut c = ServeConfig::smoke_test();
    c.seed = 11;
    c.arrivals = PoissonArrivals {
        rate_per_ktick: 60.0,
        queries: 400,
        popularity_skew: 2.0,
    };
    c
}

#[test]
fn independently_rebuilt_workloads_serve_identically() {
    let cfg = config();
    let reports: Vec<String> = (0..2)
        .map(|_| {
            let workload = ServeWorkload::build(&cfg).expect("build workload");
            let report = serve::simulate(&cfg, &workload).expect("simulate");
            serde_json::to_string_pretty(&report).expect("serialize")
        })
        .collect();
    assert_eq!(
        reports[0], reports[1],
        "two full workload rebuilds produced different reports"
    );
}
