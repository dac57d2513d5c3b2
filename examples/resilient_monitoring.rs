//! Monitoring through faults: what an outage costs the paper's transport.
//!
//! A link outage and a backend brown-out are injected into a Scenario A
//! run over the paper's unbuffered transport: whatever the faults swallow
//! is lost, and the ledger still balances.
//!
//! ```sh
//! cargo run --example resilient_monitoring
//! ```

use pmove::core::PMoveDaemon;
use pmove::hwsim::{FaultKind, FaultSchedule};

fn main() {
    // A 15 s link outage and a deep brown-out inside a 60 s window.
    let faults = FaultSchedule::none()
        .with_window(10.0, 25.0, FaultKind::LinkDown)
        .with_window(35.0, 45.0, FaultKind::BackendBrownout(0.2));

    // The unbuffered transport under those faults: whatever the outage
    // swallows is gone, and every offered value has exactly one fate.
    let mut daemon = PMoveDaemon::for_preset("icl").expect("preset machine");
    let report = daemon.monitor(60.0, 2.0, Some(faults));
    println!("== unbuffered transport under faults ==");
    println!(
        "offered {} inserted {} lost {} conserved {}",
        report.transport.values_offered,
        report.transport.values_inserted + report.transport.values_zeroed,
        report.transport.values_lost,
        report.transport.conserved(),
    );
}
