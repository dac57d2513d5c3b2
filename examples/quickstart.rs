//! Quickstart: bring up P-MoVE against a target, monitor it, and render
//! an automatically generated dashboard.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pmove::core::dashboard::{gen, render};
use pmove::core::PMoveDaemon;

fn main() {
    // Steps ⓪–③: read env, probe the target, generate the KB, insert it
    // into the document database.
    let mut daemon = PMoveDaemon::for_preset("csl").expect("preset machine");
    println!(
        "probed {}: {} component twins in the KB\n",
        daemon.kb.machine_key,
        daemon.kb.len()
    );

    // Scenario A: monitor system state for 30 virtual seconds at 2 Hz.
    let report = daemon.monitor(30.0, 2.0, None);
    println!(
        "scenario A: {} ticks, {} values stored, {:.1}% lost\n",
        report.ticks,
        report.transport.values_inserted,
        report.transport.loss_pct()
    );

    // Automatic dashboards from the KB (Listing 1 JSON).
    let socket = daemon
        .kb
        .by_name("socket0")
        .expect("socket twin")
        .id
        .clone();
    let dash = gen::subtree_dashboard(&daemon.kb, &socket).expect("dashboard");
    println!(
        "generated subtree dashboard with {} panels; Listing-1 style JSON:\n{}\n",
        dash.panels.len(),
        serde_json::to_string_pretty(&dash.to_json()["panels"][0]).unwrap()
    );

    // Render the per-CPU idle panel from live data.
    if let Some(panel) = dash
        .panels
        .iter()
        .find(|p| p.title == "kernel_percpu_cpu_idle")
    {
        let mut small = panel.clone();
        small.targets.truncate(4);
        println!("{}", render::render_panel(&daemon.ts, &small, None, 40));
    }

    // The KB's focus view: from one thread up to the system twin.
    let cpu0 = daemon.kb.by_name("cpu0").expect("cpu0 twin").id.clone();
    let path = pmove::core::kb::views::focus_path(&daemon.kb, &cpu0);
    let names: Vec<&str> = path.iter().map(|i| i.display_name.as_str()).collect();
    println!("focus path of cpu0: {}", names.join(" → "));
}
