//! SUPERDB demo: probe several machines, upload their KBs and
//! observations to the global database, and run cross-machine analyses
//! (the Fig. 2(d) level view across servers).
//!
//! ```sh
//! cargo run --example multi_machine
//! ```

use pmove::core::kb::superdb::SuperDb;
use pmove::core::profiles::stream_kernel_profile;
use pmove::core::telemetry::pinning::PinningStrategy;
use pmove::core::telemetry::scenario_b::ProfileRequest;
use pmove::core::PMoveDaemon;
use pmove::hwsim::vendor::IsaExt;
use pmove::kernels::StreamKernel;
use pmove::tsdb::{Point, Query};

fn main() {
    let superdb = SuperDb::new();

    // One local P-MoVE instance per target; each runs the same DDOT kernel
    // and reports to SUPERDB.
    for key in ["skx", "icl", "csl", "zen3"] {
        let mut daemon = PMoveDaemon::for_preset(key).expect("preset machine");
        superdb.upload_kb(&daemon.kb).expect("KB upload");

        let threads = daemon.machine.spec.total_cores();
        let flop_event = if key == "zen3" {
            "TOTAL_DP_FLOPS"
        } else {
            "SCALAR_DP_FLOPS"
        };
        let request = ProfileRequest {
            profile: stream_kernel_profile(StreamKernel::Ddot, 1 << 34, threads, IsaExt::Scalar),
            command: "ddot -n 17179869184".into(),
            generic_events: vec![flop_event.into(), "TOTAL_MEMORY_OPERATIONS".into()],
            freq_hz: 4.0,
            pinning: PinningStrategy::NumaBalanced,
        };
        let outcome = daemon.profile(&request).expect("profiling succeeds");
        let obs = outcome.observation.clone();
        println!(
            "{key:>5}: ddot ran {:.4} s at {:.1} GF/s on {threads} cores",
            outcome.execution.duration_s,
            outcome.execution.gflops()
        );

        // TS upload: recall the raw series from the local instance.
        let mut series: Vec<Point> = Vec::new();
        for q in obs.queries() {
            if let Ok(r) = daemon.ts.query(&q) {
                for row in &r.rows {
                    let mut p = Point::new("ddot_recalled")
                        .tag("tag", obs.id.clone())
                        .timestamp(row.timestamp);
                    for (k, v) in &row.values {
                        if let Some(v) = v {
                            p = p.field(k.clone(), *v);
                        }
                    }
                    series.push(p);
                }
            }
        }
        superdb
            .upload_ts_observation(&obs, series)
            .expect("TS upload");

        // AGG upload: statistical summaries only.
        let sums: Vec<(String, String, Vec<f64>)> = obs
            .metrics
            .iter()
            .map(|m| {
                let q = Query::parse(&format!(
                    "SELECT \"{}\" FROM \"{}\" WHERE tag='{}'",
                    m.fields[0], m.db_name, obs.id
                ));
                let values: Vec<f64> = q
                    .and_then(|q| daemon.ts.query_frame(&q))
                    .map(|f| f.cols[0].iter().flatten().copied().collect())
                    .unwrap_or_default();
                (m.db_name.clone(), m.fields[0].clone(), values)
            })
            .collect();
        let agg = SuperDb::aggregate(&obs, &sums);
        superdb.upload_agg_observation(&agg).expect("AGG upload");
    }

    // Global views.
    println!("\nSUPERDB machines: {:?}", superdb.machines());
    let sockets = superdb.global_level_view("socket").expect("level view");
    println!("global level view over sockets:");
    for (machine, iface) in &sockets {
        println!(
            "  {:<5} {} — {}",
            machine,
            iface.display_name,
            iface
                .property_value("model")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
        );
    }
    let threads = superdb.global_level_view("thread").expect("level view");
    println!("total thread twins across the fleet: {}", threads.len());
}
